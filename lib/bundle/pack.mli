(** Packing a run into a [PTZ1] bundle.

    The packer embeds the store (segment bytes verbatim for a store
    directory; for in-memory host arenas, the no-reduction segments the
    store writer cuts, held in memory by {!Store.Writer.encode}), gathers
    the rows those segments hold (decoded from a directory's bytes) into
    per-host {!Trace.Arena}s in the canonical row order
    ({!Store.Query.merge_native}, the order {!Reader.query} returns),
    correlates the rows ({!Core.Shard.correlate_arena}), and serialises
    the resulting causal paths with a back-link per vertex source.
    Correlation keeps each vertex's raw rows ({!Core.Cag.sources}: host
    index in those arenas, raw row), so the back-links are a copy of
    them, exact by construction: no search, no match on record fields.
    Pattern profiles ({!Core.Analysis.profile}), the correlation
    configuration, an optional scenario description and an optional
    telemetry snapshot ride along.

    Each stage is timed into {!Telemetry.Registry.default} as
    [pt_bundle_pack_stage_seconds{stage}], and back-links are counted as
    [pt_bundle_links_total{state}] (docs/TELEMETRY.md).

    Determinism: identical inputs produce byte-identical bundles — the
    payload carries no wall-clock timestamps (activity timestamps are
    virtual sim-time), JSON keys are sorted, section order is fixed, and
    correlation output is byte-identical at any [jobs] (see
    {!Core.Shard}). The telemetry snapshot holds wall-clock stage times,
    so it is left out unless asked for; packing without it is
    reproducible. *)

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
  unresolved_links : int;
      (** Vertex sources with no raw row ({!Core.Cag.no_row}); always 0
          for a packed run, which correlates arena rows. *)
}

val pp_summary : Format.formatter -> summary -> unit

(** {1 Packing} *)

val pack :
  ?embed_telemetry:bool ->
  ?scenario:Core.Json.t ->
  ?jobs:int ->
  ?roll_records:int ->
  config:Core.Correlator.config ->
  source:[ `Store_dir of string | `Arenas of Trace.Arena.t list ] ->
  path:string ->
  unit ->
  (summary, string) result
(** Write the bundle to [path] (atomically, via a temp file + rename).
    An [`Arenas] source (raw host arenas; unsorted ones are sorted on a
    copy) embeds exactly the segments a {!Store.Writer} store of the same
    rows holds; [roll_records] (default 65536) is that writer's roll. A
    [`Store_dir] source keeps its segmentation. With [embed_telemetry]
    (default false), a [telemetry] section holds a snapshot of
    {!Telemetry.Registry.default} taken after the [encode] stage: it
    holds every stage time of this pack except [write]'s. *)
