(** Streaming root-cause detector over the online path feed.

    The detector consumes finished causal paths one at a time — from
    {!Core.Online}'s [on_path] hook, the in-band collection plane
    ({!Collect.Deploy.install}) or a replayed trace — and raises
    structured, timestamped {!verdict}s when the stream departs from a
    healthy {!Baseline.t}:

    - {b Share drift}: a pattern's latency-share profile — the
      {!Core.Aggregate.of_pattern} profile of its most recent
      paths, against the baseline's — shifts; the culprit is named in
      the paper's §5.4 vocabulary via {!Core.Analysis.compare_profiles}
      (tier / tier network / interaction).
    - {b Pattern-mix anomalies}: a baseline pattern vanishes, a new
      pattern appears, or a pattern's frequency shifts beyond tolerance.
    - {b Latency shift}: a pattern's window-mean end-to-end latency
      reaches 2.5x its baseline mean.
    - {b Throughput drop}: the overall path completion rate falls to a
      third of the baseline rate.

    Each path is classified once ({!Core.Pattern.classify} of the path
    alone) and joins its signature's window as a one-member pattern. A
    judged window is profiled from those members' span columns, in
    window order, so its profile is bit-identical to the one
    {!Core.Aggregate.profiles_of_cags} computes over the same paths.

    One hysteresis rule guards every alarm. An alarm is keyed by what it
    watches: its kind, the pattern's signature (for per-pattern and mix
    alarms) and the §5.4 subject (for share drift), never the culprit a
    verdict names. It fires once when its signal crosses the firing
    threshold, then stays quiet until the signal recedes a factor of two
    past that threshold (below half of it; above twice it for a
    throughput drop); a share-drift subject that leaves the suspect list
    re-arms too. Each verdict increments
    [pt_diagnose_alerts_total{kind,comp,pattern}]. *)

type kind =
  | Share_drift
  | Pattern_new
  | Pattern_vanished
  | Pattern_shift
  | Latency_shift
  | Throughput_drop

val kind_to_string : kind -> string

type verdict = {
  at : Simnet.Sim_time.t;  (** Stream time at which the alarm fired. *)
  kind : kind;
  pattern : string option;  (** Pattern name, for per-pattern alarms. *)
  culprit : Core.Analysis.subject option;
      (** The named root cause, in §5.4 language, when one is implied. *)
  baseline_value : float;
  observed_value : float;
  reason : string;  (** One-line human-readable account. *)
  paths_seen : int;  (** Paths consumed when the alarm fired. *)
}

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_json : verdict -> Core.Json.t

type config = {
  warmup_paths : int;
      (** Baseline window capacity; also the inline-learning freeze
          point when [freeze_after] is [None]. Default 400. *)
  freeze_after : Simnet.Sim_time.t option;
      (** Freeze the inline-learned baseline at this stream instant
          instead of after [warmup_paths] paths (a live run freezes at
          the end of the up-ramp). Default [None]. *)
  window : int;  (** Recent paths kept per pattern. Default 80. *)
  min_window : int;
      (** Paths required before a pattern is judged. Default 40. *)
  share_threshold : float;
      (** Minimum {!Core.Analysis} suspect severity (share delta) that
          fires {!Share_drift}. Default 0.10. *)
  mix_window : int;  (** Pattern-mix ring size, paths. Default 200. *)
  mix_tolerance : float;
      (** Absolute frequency delta that fires {!Pattern_shift}.
          Default 0.15. *)
  mix_min_frequency : float;
      (** Patterns rarer than this (baseline or observed) are ignored
          by mix detection. Default 0.05. *)
  throughput_window_s : float;
      (** Sliding wall of stream time over which the live rate is
          estimated. Default 5.0. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?baseline:Baseline.t ->
  ?now:(unit -> Simnet.Sim_time.t) ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** A detector. With [?baseline] it starts armed; without, it learns one
    inline from the first [warmup_paths] paths (or until [freeze_after])
    and then arms. [?now] supplies stream time (e.g. the simulation
    clock); otherwise each path's {!Core.Cag.end_ts} is used. *)

val observe : t -> Core.Cag.t -> verdict list
(** Feed one path; returns the verdicts (usually none) this path fired,
    in a deterministic order. Unfinished CAGs are ignored. *)

val warmed : t -> bool
(** Has the detector armed (baseline available)? *)

val baseline : t -> Baseline.t option
(** The baseline in force: supplied, or frozen from the warmup. *)

val verdicts : t -> verdict list
(** All verdicts fired so far, oldest first. *)

val paths_seen : t -> int
(** Finished paths consumed (including warmup). *)
