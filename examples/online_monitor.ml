(* Live monitoring: correlate causal paths while the service runs and catch
   a regression the moment it appears.

   A Database_Lock fault strikes the running auction site halfway through
   the session. Per-node agents ship the probe's records in-band to a
   collector, whose online correlator turns them into causal paths in
   real time, and the streaming detector learns a baseline from the first
   paths, then watches each pattern's latency-share profile, mix, latency
   and throughput - no offline analysis step, no resource monitoring.

     dune exec examples/online_monitor.exe *)

module Service = Tiersim.Service
module S = Tiersim.Scenario
module Faults = Tiersim.Faults
module ST = Simnet.Sim_time
module Detector = Diagnose.Detector

let () =
  let time_scale = 0.1 in
  let up, runtime, down = S.stage_spans ~time_scale in
  let onset = ST.span_add up (ST.span_scale 0.5 runtime) in
  Format.printf "running 300 clients; Database_Lock strikes at t=%a@.@." ST.pp_span onset;

  let cfg =
    {
      Service.default_config with
      Service.faults = [ Faults.database_lock ];
      fault_onset = Some onset;
    }
  in
  let svc = Service.create cfg in
  Trace.Probe.enable (Service.probe svc);

  let engine = Service.engine svc in
  let detector =
    Detector.create
      ~config:{ Detector.default_config with Detector.warmup_paths = 400 }
      ~now:(fun () -> Simnet.Engine.now engine)
      ()
  in
  let deploy =
    Collect.Deploy.install
      ~on_path:(fun cag ->
        List.iter
          (fun verdict ->
            Format.printf "!! path #%d  %a@." (Detector.paths_seen detector)
              Detector.pp_verdict verdict)
          (Detector.observe detector cag))
      svc
  in

  let stop = ST.add (ST.add (ST.add ST.zero up) runtime) down in
  Tiersim.Client.start svc
    {
      Tiersim.Client.count = 300;
      mix = Tiersim.Workload.Browse_only;
      ramp_up = up;
      stop_issuing_at = stop;
      only_kind = None;
    };
  Simnet.Engine.run engine;
  Collect.Deploy.finish deploy;

  let verdicts = Detector.verdicts detector in
  Format.printf "@.run complete: %d paths correlated live, %d verdicts@."
    (Detector.paths_seen detector) (List.length verdicts);
  match List.find_map (fun v -> v.Detector.culprit) verdicts with
  | None -> Format.printf "no culprit named (unexpected!)@."
  | Some culprit ->
      Format.printf "first culprit named: %s - the injected fault's home.@."
        (Core.Analysis.subject_label culprit)
