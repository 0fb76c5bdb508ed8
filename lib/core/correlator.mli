(** PreciseTracer's Correlator: the full pipeline from raw per-node logs
    to causal paths.

    [correlate] composes the three steps of §4: (1) per-node logs sorted by
    local timestamps (guaranteed by {!Trace.Log}), (2) the {!Ranker}
    choosing candidates through the sliding time window, and (3) the
    {!Cag_engine} assembling candidates into CAGs — after the
    {!Transform} pass has rewritten entry-point activities into
    BEGIN/END and dropped name-filterable noise.

    There is one correlation core, {!correlate_rows}: the rank/step/gc
    loop over transformed arena rows. {!correlate_arena} transforms
    packed rows and runs it; {!correlate} is the record-list adapter onto
    {!correlate_arena}; {!Shard} runs the core once per epoch. *)

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
  memory_bytes_estimate : int;
      (** [peak_memory_proxy] scaled by a per-record footprint estimate. *)
}

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
    time, activities in, commits, window occupancy, the path counts, and
    the full {!Ranker.stats}/{!Cag_engine.stats} mirror (see
    docs/TELEMETRY.md for the catalogue). *)

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
(** The rank/step/gc loop alone — the one correlation core — over per-host
    arenas the {!Transform} pass has already been applied to, each in log
    order ({!Trace.Arena.sort_by_time}). {!Shard} runs it once per epoch
    in a worker domain. [started] (a [Unix.gettimeofday] stamp) backdates
    [correlation_time] so callers can account setup they did
    themselves. *)
