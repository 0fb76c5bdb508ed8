(** PreciseTracer's Correlator: the full pipeline from raw per-node logs
    to causal paths.

    [correlate] composes the three steps of §4: (1) per-node logs sorted by
    local timestamps (guaranteed by {!Trace.Log}), (2) the {!Ranker}
    choosing candidates through the sliding time window, and (3) the
    {!Cag_engine} assembling candidates into CAGs — after the
    {!Transform} pass has rewritten entry-point activities into
    BEGIN/END and dropped name-filterable noise.

    There is one rank/commit loop, {!Session}: it owns the ranker and the
    engine, commits every candidate, collects the engine's garbage,
    samples memory and publishes the run's telemetry once, on close.
    {!correlate_rows} runs a session over a native ranker;
    {!correlate_arena} transforms packed rows and runs it; {!correlate}
    is the record-list adapter onto {!correlate_arena}; {!Shard} runs
    {!correlate_rows} once per epoch; {!Online} runs a session over an
    online ranker as rows stream in. *)

type config = {
  transform : Transform.config;
  window : Simnet.Sim_time.span;  (** Sliding-window size. *)
  skew_allowance : Simnet.Sim_time.span;
      (** Upper bound assumed on cross-node clock skew; see {!Ranker}. *)
  ablation : Ranker.ablation;  (** For the mechanism-ablation benches. *)
}

val config :
  transform:Transform.config ->
  ?window:Simnet.Sim_time.span ->
  ?skew_allowance:Simnet.Sim_time.span ->
  ?ablation:Ranker.ablation ->
  unit ->
  config
(** Defaults: 10 ms window (the paper's §5.3.1 setting), 1 s allowance. *)

type result = {
  cags : Cag.t list;  (** Finished CAGs, in completion order. *)
  deformed : Cag.t list;  (** Unfinished CAGs (loss or truncated input). *)
  ranker_stats : Ranker.stats;
  engine_stats : Cag_engine.stats;
  correlation_time : float;  (** Wall-clock seconds spent correlating. *)
  peak_memory_proxy : int;
      (** Peak simultaneously-held records: buffered activities plus live
          CAG vertices plus mmap entries — the quantity the paper's Fig. 11
          tracks as Correlator memory. *)
}

(** The one rank/commit loop, shared by offline, sharded and online
    correlation.

    A session commits each candidate {!Ranker.next} pops through
    {!Cag_engine.step_ids} with the candidate's ids and {!Cag.source}.
    Every 4096 commits it evicts mmap SENDs older than twice the skew
    allowance behind the candidate (clamped at time zero). After every
    commit it samples window occupancy and the held records: {!Ranker.held}
    plus live vertices plus mmap entries, the Fig. 11 memory proxy. *)
module Session : sig
  type t

  val create :
    ?telemetry:Telemetry.Registry.t ->
    ?on_path:(Ranker.t -> Cag.t -> unit) ->
    config ->
    (has_mmap_send:(int -> bool) -> Ranker.t) ->
    t
  (** A session over the ranker the last argument builds around the
      session engine's Rule 1 probe. [on_path] fires after each commit
      that completed a CAG, with the ranker as it stood at that commit.
      Only the [skew_allowance] of the configuration is read here; the
      ranker's own settings are the builder's. *)

  val ranker : t -> Ranker.t
  val engine : t -> Cag_engine.t

  val run : t -> unit
  (** Commit candidates until {!Ranker.next} has none to give. *)

  val close : t -> unit
  (** Publish the run into [telemetry] (default
      {!Telemetry.Registry.default}): every {!Ranker.stats} and
      {!Cag_engine.stats} field as [pt_ranker_*] and [pt_engine_*],
      [pt_correlator_paths_total{state}] and
      [pt_correlator_peak_memory_records] (see docs/TELEMETRY.md). Each
      fact has one name: the commits are [pt_ranker_candidates_total],
      the finished CAGs [pt_correlator_paths_total{state="finished"}].
      Counters add, since registry counters are cumulative across the
      runs of a process. Closing again does nothing. *)
end

val correlate :
  ?telemetry:Telemetry.Registry.t ->
  ?on_path:(Cag.t -> unit) ->
  config ->
  Trace.Log.collection ->
  result
(** Run the offline pipeline to completion, invoking [on_path] (default:
    nothing) as each causal path completes — the paper's intended online
    use. The records are packed with {!Trace.Arena.of_collection} and run
    through {!correlate_arena}. The run also reports itself into
    [telemetry] (default {!Telemetry.Registry.default}): per-stage wall
    time, activities in, and what {!Session.close} publishes. *)

val correlate_arena :
  ?telemetry:Telemetry.Registry.t ->
  ?on_path:(Cag.t -> unit) ->
  config ->
  Trace.Arena.t list ->
  result
(** {!correlate} fed from the native representation: the {!Transform}
    pass runs as {!Transform.apply_native} (one memoised decision per
    interned context/flow id, output in log order), then
    {!correlate_rows} ranks the rows in place. A record is built only for
    each committed candidate. Decoded segments and collector batches take
    this entry without round-tripping through {!Trace.Log}. *)

val correlate_rows :
  ?telemetry:Telemetry.Registry.t ->
  ?started:float ->
  ?on_path:(Cag.t -> unit) ->
  config ->
  Trace.Arena.t list ->
  result
(** A {!Session} over {!Ranker.create_native}, run to completion and
    closed, over per-host arenas the {!Transform} pass has already been
    applied to, each in log order ({!Trace.Arena.sort_by_time}). {!Shard}
    runs it once per epoch in a worker domain. [started] (a
    [Unix.gettimeofday] stamp) backdates [correlation_time] so callers can
    account setup they did themselves. *)
