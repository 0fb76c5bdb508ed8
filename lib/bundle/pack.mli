(** Packing a run into a [PTZ1] bundle.

    The packer embeds the store (segment bytes verbatim for a store
    directory; synthetic no-reduction segments for an in-memory
    collection), decodes those same bytes once into per-host
    {!Trace.Arena}s merged into the canonical row order
    ({!Store.Query.merge_native}, the order {!Reader.collection}
    returns), correlates the rows ({!Core.Shard.correlate_arena}), and
    serialises the resulting causal paths with a back-link per vertex
    source resolved against those rows. Pattern profiles, the
    correlation configuration, an optional scenario description and an
    optional telemetry snapshot ride along. A [`Logs] source is
    converted to arenas once, at the boundary.

    Each stage is timed into {!Telemetry.Registry.default} as
    [pt_bundle_pack_stage_seconds{stage}], and back-links are counted as
    [pt_bundle_links_total{state}] (docs/TELEMETRY.md).

    Determinism: identical inputs produce byte-identical bundles — the
    payload carries no wall-clock timestamps (activity timestamps are
    virtual sim-time), JSON keys are sorted, section order is fixed, and
    correlation output is byte-identical at any [jobs] (see
    {!Core.Shard}). The telemetry snapshot is caller-provided, so leaving
    it out keeps repacking reproducible. *)

type summary = {
  out_path : string;
  bytes : int;  (** Total bundle size. *)
  records : int;
  hosts : string list;  (** Canonical (sorted) hostnames. *)
  segments : int;
  store_bytes : int;  (** Embedded segment bytes (headers + payloads). *)
  cags : int;  (** Finished causal paths packed. *)
  deformed : int;  (** Deformed paths: finished-deformed plus unfinished. *)
  patterns : int;
  links : int;  (** Back-links written. *)
  unresolved_links : int;  (** Sources with no matching stored record. *)
}

val pp_summary : Format.formatter -> summary -> unit

(** {1 Back-links} *)

type resolver
(** Resolution state over the canonical per-host arenas: which rows
    earlier sources have consumed. *)

val resolver : Trace.Arena.t list -> resolver
(** Over per-host arenas sorted by time, in back-link host order. *)

val resolve : resolver -> Trace.Activity.t -> (int * int) option
(** The [(host, row)] of the raw record behind one vertex source, or
    [None]: binary-search the source's timestamp in each arena, in host
    order, and consume the first row sharing it that is not yet consumed
    and matches on context, flow, size and kind — the exact kind first,
    then the raw kind of a transform-rewritten entry record (RECEIVE for
    BEGIN, SEND for END). *)

(** {1 Packing} *)

val pack :
  ?telemetry:Telemetry.Registry.family list ->
  ?scenario:Core.Json.t ->
  ?jobs:int ->
  ?roll_records:int ->
  config:Core.Correlator.config ->
  source:[ `Store_dir of string | `Logs of Trace.Log.collection ] ->
  path:string ->
  unit ->
  (summary, string) result
(** Write the bundle to [path] (atomically, via a temp file + rename).
    [roll_records] (default 65536) sizes the synthetic segments of a
    [`Logs] source; a [`Store_dir] source keeps its segmentation. *)
