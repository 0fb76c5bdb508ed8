(** Packing a run into a [PTZ1] bundle.

    The packer embeds a store and the causal paths correlated from its
    rows, with a back-link per vertex source. A [`Run] is a correlation
    that already ran, offline, sharded or online: its host arenas in
    {!Store.Query.merge_native} order, embedded as the segments
    {!Store.Writer.encode} cuts, and its finished and unfinished paths.
    A [`Store_dir] holds no paths: its segments are embedded verbatim,
    merged into that order and correlated here
    ({!Core.Shard.correlate_arena}). Either way each vertex kept its raw
    rows ({!Core.Cag.sources}: host index in those arenas, raw row), and
    {!Codec.encode} writes them as its back-links while it encodes the
    path table, exact by construction. Pattern profiles
    ({!Core.Analysis.profile}), the correlation configuration, an
    optional scenario description and an optional telemetry snapshot
    ride along. [simulate --collect --bundle] packs an offline run of the
    probe logs: the collector numbers a host's rows in delivery order,
    not in the probe log's.

    Each stage — [decode], [correlate] (a store directory only),
    [profile], [encode] (back-links included) and [write] — is timed into
    {!Telemetry.Registry.default} as
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
  source:
    [ `Store_dir of string | `Run of Trace.Arena.t list * Core.Cag.t list * Core.Cag.t list ] ->
  path:string ->
  unit ->
  (summary, string) result
(** Write the bundle to [path] ({!Container.write}: streamed to a temp
    file and renamed; a failed write raises [Sys_error] naming [path],
    leaving no temp file).
    A [`Run (arenas, finished, unfinished)] embeds the segments a
    {!Store.Writer} store of [arenas] holds, rolled every [roll_records]
    (default 65536); arenas in any other order are an [Error], since the
    back-links would name other rows. A [`Store_dir] keeps its
    segmentation and is correlated at [jobs]. With [embed_telemetry]
    (default false), a [telemetry] section holds a snapshot of
    {!Telemetry.Registry.default} taken after the [encode] stage: it
    holds every stage time of this pack except [write]'s. *)
