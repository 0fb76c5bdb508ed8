(** Domain-parallel offline correlation.

    The offline pipeline is embarrassingly parallel between requests that
    do not overlap in time: if the merged activity feed can be cut at an
    instant where no request is open — every entry flow that saw a BEGIN
    has seen its END (tracked as a flow set, since a chunked response
    emits several ENDs), and every message flow's sent bytes are fully
    received — then
    the two sides share no CAG, no mmap entry and no cmap ancestry, and
    correlating them in separate {!Ranker}/{!Cag_engine} instances gives
    exactly the per-epoch restriction of the serial run.

    {!correlate_arena} works on arena rows end to end. It transforms the
    host arenas ({!Transform.apply_native}), then finds request-quiescent
    cuts (the same quiescence the ranker's watermark machinery waits for)
    in one sweep over a k-way merge of their rows
    ({!Trace.Arena.iter_merged}), keyed by {!Trace.Intern} flow ids. The
    merge keeps each host's order, so an epoch is one contiguous row
    range per host: each epoch's arenas are copied out
    with {!Trace.Arena.append_range} and run through
    {!Correlator.correlate_rows} in a worker domain of a
    {!Parallel.Pool}. The per-epoch results are merged back in epoch
    order, re-keying CAG ids by each epoch's running [cags_started]
    offset — so patterns, per-pattern breakdowns and path ids are
    identical to the serial pipeline's. Requests that never close (lost
    ENDs) or flows that never balance (a silent host's unreceived sends)
    block all later cuts, so degraded feeds gracefully collapse toward
    one big epoch: still correct, just less parallel.

    What is {e not} identical to serial: wall-clock fields
    ([correlation_time], the memory proxies, [peak_*] stats are
    per-domain maxima), GC-cadence-dependent [evicted_sends], and the
    engine's [thread_reuse_blocked] count — serial carries finished-CAG
    cmap entries across epoch boundaries and counts the suppressed
    context edges; a fresh per-epoch engine has nothing to suppress.
    Neither changes any emitted path. *)

type plan

val plan : jobs:int -> Correlator.config -> Trace.Arena.t list -> plan
(** Apply the transform and compute the epoch boundaries that
    {!correlate_arena} at [jobs] (> 1) executes: cuts need a quiescent
    gap of at least the config's window (so the serial ranker could not
    have fetched across the cut either), and adjacent candidates are
    coalesced into about [4 * jobs] epochs so scheduling overhead stays
    bounded on long traces. *)

val epoch_ranges : plan -> (int * int) array
(** The chosen [lo, hi) index ranges over the time-merged feed. *)

val cut_candidates : plan -> int
(** How many quiescent boundaries the sweep found (before coalescing). *)

val correlate_arena :
  ?telemetry:Telemetry.Registry.t ->
  ?jobs:int ->
  Correlator.config ->
  Trace.Arena.t list ->
  Correlator.result
(** Sharded offline correlation. [jobs] defaults to
    {!Parallel.Pool.default_jobs} (1 unless [PT_JOBS] says otherwise);
    [jobs <= 1] is {!Correlator.correlate_arena}, and a plan with a single epoch runs
    {!Correlator.correlate_rows} over the whole feed, byte-for-byte the
    serial path. Reports the usual
    [pt_correlator_*]/[pt_ranker_*]/[pt_engine_*] metrics (counter
    totals match the serial run, see above) plus [pt_parallel_*]
    planning and per-epoch figures. *)

val digest : Correlator.result -> string
(** A canonical hex digest of everything the pattern/report layer shows:
    finished/deformed counts, each pattern's signature, name, population
    and member path ids, per-pattern component percentage breakdowns and
    total-latency tail percentiles. Serial and sharded runs of the same
    input produce equal digests; wall-clock and memory fields are
    excluded on purpose. *)
