(** Online correlation: causal paths while the service runs.

    The paper runs its experiments offline but positions PreciseTracer's
    "low overhead and tolerance of noise" as making it "a promising
    tracing tool for using on production systems". This module provides
    that mode: each node's rows are pushed in as a collector delivers
    them ({!observe_arena}; [Collect.Deploy] wires it to the in-band
    collection plane), and completed causal paths pop out with bounded
    lag. {!replay} feeds saved logs through the same path.

    Candidates are only committed once every node's feed watermark has
    passed their timestamp plus the skew allowance (see
    {!Ranker.create_online}), so the online run produces the same path
    set as an offline run over the final logs — a property the test suite
    asserts for any frame size. The order can differ: where a request
    fans out to concurrent siblings (the mesh presets), online
    correlation may complete them in another order than offline does.
    The price is latency: a path completes at most [skew_allowance] (plus
    feeding lag) after its END activity.

    {1 Degraded feeds}

    Production feeds are imperfect, and the pipeline degrades gracefully
    rather than deadlocking or raising (see {!Ranker} for the underlying
    mechanisms):

    - a host that falls silent for longer than [straggler_timeout] is
      evicted from the commit wait set, so paths keep completing; paths
      finishing while a straggler is evicted are flagged deformed
      ({!Cag.is_deformed}) and counted in
      [pt_online_deformed_paths_total];
    - out-of-contract records (unknown host, fed after {!finish},
      duplicates, timestamp regressions beyond the skew allowance,
      too-late records) are quarantined and counted per reason in
      {!ranker_stats} — {!observe_arena} never raises; regressions within
      the allowance are re-sorted into place;
    - [max_buffered] bounds held records: past it the ranker
      force-resolves the oldest window instead of waiting. The bound is
      enforced when the ranker drains, once per {!observe_arena} call, so
      held records can exceed it by up to one arena's rows.

    {1 One loop}

    The rank/commit loop is a {!Correlator.Session} over
    {!Ranker.create_online}, the loop every offline and sharded run uses
    too. This module adds only what is online-only: the per-id transform
    memo and raw-row ordinals, feeding and its quarantine results, the
    pending gauge, the path-lag histogram and the straggler-deformed
    marking. *)

type t

val create :
  config:Correlator.config ->
  hosts:string list ->
  ?straggler_timeout:Simnet.Sim_time.span ->
  ?max_buffered:int ->
  ?on_path:(Cag.t -> unit) ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** [hosts] are the traced nodes (each will feed one stream). [on_path]
    fires as each causal path completes. [straggler_timeout] and
    [max_buffered] configure the degraded-feed behaviour described above
    (both off by default). The run reports itself into
    [telemetry] (default {!Telemetry.Registry.default}): live, the
    accepted activities ([pt_online_observed_total]), pending depth
    ([pt_online_pending]), streams evicted as stragglers
    ([pt_online_stragglers_active]), the path-completion lag against the
    feed watermark ([pt_online_path_lag_seconds]) and the paths flagged
    deformed ([pt_online_deformed_paths_total]); on {!finish}, everything
    {!Correlator.Session.close} publishes — the same metric names an
    offline run reports, so online and offline runs are comparable
    through one snapshot. Rows quarantined after {!finish} are counted in
    {!ranker_stats} only. *)

val observe_arena : t -> Trace.Arena.t -> unit
(** Push every row of one host's arena (raw SEND/RECEIVE rows, as the
    probe reports them), in row order — the native feed for collector
    batches. The BEGIN/END transform and noise filters of the
    configuration are applied here, memoised per interned context/flow
    id, and surviving rows go to {!Ranker.feed_row} as ids: no record is
    built and no {!Trace.Intern} lookup is made per row. Once every row
    is fed, the ranker drains once: the arena (a collector frame) is the
    unit of progress, and [pt_online_observed_total] and the live gauges
    are updated once per call. Never raises: out-of-contract rows
    (including any fed after {!finish}) are quarantined and counted
    instead.

    The arena's rows are its host's next raw rows, counted from 0 with
    filtered rows included, so vertex {!Cag.sources} name (index in
    [hosts], raw row): the coordinates an offline run over the final
    logs gives the same vertices. *)

val replay : t -> Trace.Arena.t list -> unit
(** Feed saved host arenas (each in {!Trace.Arena.sort_by_time} order,
    one per host) row by row in arrival order: the
    {!Trace.Arena.iter_merged} order, which is how a stable time sort of
    all their records would interleave them. A record-at-a-time feed:
    the ranker drains after every accepted row. Raw-row numbering is as
    for {!observe_arena}. Call {!finish} afterwards. *)

val finish : t -> unit
(** Declare the input complete and drain everything that remains.
    Idempotent; rows fed afterwards are quarantined as [closed]. *)

val paths : t -> Cag.t list
(** Completed paths so far, in completion order. *)

val deformed : t -> Cag.t list
(** Unfinished CAGs; meaningful after {!finish}. (Finished-but-flagged
    paths are found via {!Cag.is_deformed} on {!paths}.) *)

val pending : t -> int
(** Activities accepted but not yet resolved into a candidate. *)

val peak_pending : t -> int
(** The highest {!pending} seen: read after each {!observe_arena} call's
    rows are fed, before its drain, and after each row {!replay}
    drains. *)

val quarantine_log : t -> (Ranker.reject_reason * Trace.Activity.t) list
(** Most recent quarantined records (bounded ring). *)

val ranker_stats : t -> Ranker.stats
val engine_stats : t -> Cag_engine.stats
