(** Live diagnosis: a scenario run watched through the in-band feed.

    One call wires the whole loop together: run a {!Tiersim.Scenario}
    with its faults held back until a mid-run onset, install the in-band
    collection plane with its default config ({!Collect.Deploy.install}),
    feed every path the collector completes into a streaming {!Detector}
    clocked by the simulation engine, and grade the verdicts against the
    injected ground truth ({!Verdict.score}).

    The detector learns its baseline inline from the healthy pre-onset
    traffic unless one is supplied. Learning inline, it freezes at the
    end of the up-ramp (the start of the runtime session), unless the
    config sets its own [freeze_after]. Paths completing after the
    runtime session are not judged, so the down-ramp and drain cannot
    fire throughput or latency alarms. *)

type result = {
  outcome : Tiersim.Scenario.outcome;
  verdicts : Detector.verdict list;
  score : Verdict.score;
  baseline : Baseline.t option;  (** The baseline the detector ran with. *)
  onset : Simnet.Sim_time.t option;
      (** The fault activation instant actually used. *)
  paths_fed : int;  (** Paths delivered to the detector. *)
}

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?config:Detector.config ->
  ?baseline:Baseline.t ->
  ?onset:Simnet.Sim_time.span ->
  ?on_verdict:(Detector.verdict -> unit) ->
  Tiersim.Scenario.spec ->
  result
(** Run [spec] live. When [spec.faults] is non-empty, the faults activate
    at [onset] (default {!Tiersim.Scenario.mid_run_onset}) — overriding
    [spec.fault_onset]. [on_verdict] fires as each verdict does, at its
    simulated instant (the live CLI prints them as they happen). [config]
    defaults to {!Detector.default_config}. Without [baseline], the
    detector freezes one from the pre-onset stream at [config]'s
    [freeze_after], or at the end of the up-ramp when that is [None]. *)
