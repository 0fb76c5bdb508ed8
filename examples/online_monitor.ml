(* Live monitoring: correlate causal paths while the service runs and catch
   a regression the moment it appears.

   A Database_Lock fault strikes the running auction site halfway through
   the session. Diagnose.Live runs the scenario with per-node agents
   shipping the probe's records in-band to a collector, whose online
   correlator turns them into causal paths in real time. The streaming
   detector learns a baseline from the healthy up-ramp, then watches each
   pattern's latency-share profile, mix, latency and throughput during the
   runtime session - no offline analysis step, no resource monitoring.

     dune exec examples/online_monitor.exe *)

module S = Tiersim.Scenario
module ST = Simnet.Sim_time
module Detector = Diagnose.Detector
module Live = Diagnose.Live

let () =
  let spec = { S.default with S.faults = [ Tiersim.Faults.database_lock ] } in
  let onset = S.mid_run_onset ~time_scale:spec.S.time_scale () in
  Format.printf "running %d clients; Database_Lock strikes at t=%a@.@." spec.S.clients ST.pp_span
    onset;
  let r =
    Live.run ~onset
      ~on_verdict:(fun v ->
        Format.printf "!! path #%d  %a@." v.Detector.paths_seen Detector.pp_verdict v)
      spec
  in
  Format.printf "@.run complete: %d paths watched live, %d verdicts@." r.Live.paths_fed
    (List.length r.Live.verdicts);
  match List.find_map (fun v -> v.Detector.culprit) r.Live.verdicts with
  | None -> Format.printf "no culprit named (unexpected!)@."
  | Some culprit ->
      Format.printf "first culprit named: %s - the injected fault's home.@."
        (Core.Analysis.subject_label culprit)
