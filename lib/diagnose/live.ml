module S = Tiersim.Scenario
module Service = Tiersim.Service
module Sim_time = Simnet.Sim_time
module Engine = Simnet.Engine
module Registry = Telemetry.Registry

type result = {
  outcome : S.outcome;
  verdicts : Detector.verdict list;
  score : Verdict.score;
  baseline : Baseline.t option;
  onset : Sim_time.t option;
  paths_fed : int;
}

let run ?(telemetry = Registry.default) ?config ?baseline ?onset ?on_verdict (spec : S.spec) =
  let time_scale = spec.S.time_scale in
  let measure_from, measure_until = S.runtime_session ~time_scale in
  let onset_span =
    if spec.S.faults = [] then None
    else
      match (onset, spec.S.fault_onset) with
      | Some o, _ -> Some o
      | None, Some o -> Some o
      | None, None -> Some (S.mid_run_onset ~time_scale ())
  in
  let spec = { spec with S.fault_onset = onset_span } in
  let config = Option.value config ~default:Detector.default_config in
  let config =
    if Option.is_none baseline && Option.is_none config.freeze_after then
      (* Learning inline: freeze at the end of the up-ramp so the
         baseline covers only healthy steady-state traffic. *)
      { config with freeze_after = Some measure_from }
    else config
  in
  let detector = ref None in
  let deploy = ref None in
  let paths_fed = ref 0 in
  let before_run svc =
    let engine = Service.engine svc in
    let det =
      Detector.create ~config ?baseline
        ~now:(fun () -> Engine.now engine)
        ~telemetry ()
    in
    detector := Some det;
    let on_path cag =
      (* Judge the runtime session only: the up-ramp (once a baseline is
         armed) runs legitimately below baseline throughput, and paths
         completing during the down-ramp or drain would fire
         throughput/latency alarms just as spuriously. Warmup learning
         still consumes ramp paths. *)
      let now = Engine.now engine in
      if
        Sim_time.compare now measure_until <= 0
        && ((not (Detector.warmed det)) || Sim_time.compare now measure_from >= 0)
      then begin
        incr paths_fed;
        let fired = Detector.observe det cag in
        match on_verdict with Some f -> List.iter f fired | None -> ()
      end
    in
    deploy := Some (Collect.Deploy.install ~telemetry ~on_path svc)
  in
  let after_run _svc =
    match !deploy with Some d -> Collect.Deploy.finish d | None -> ()
  in
  let outcome = S.run ~before_run ~after_run spec in
  let det = Option.get !detector in
  let verdicts = Detector.verdicts det in
  let onset_t = Option.map (Sim_time.add Sim_time.zero) onset_span in
  let fault = match spec.S.faults with f :: _ -> Some f | [] -> None in
  let score = Verdict.score ~telemetry ?fault ?onset:onset_t verdicts in
  {
    outcome;
    verdicts;
    score;
    baseline = Detector.baseline det;
    onset = onset_t;
    paths_fed = !paths_fed;
  }
