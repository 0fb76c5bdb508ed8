(** Reading a [PTZ1] bundle: sections decode in place at their offsets —
    embedded store segments are never copied out to temp files — and every
    decode error names the bundle-relative offset it was detected at.

    Embedded segments decode straight into {!Trace.Arena} rows
    ({!Store.Segment.read_embedded_native}); the canonical row order is
    {!Store.Query.merge_native} over them, the same order the packer
    resolved back-links against. A record is built only for a resolved
    back-link.

    Decoded artifacts (the canonical rows, the path table, the profiles)
    are cached on the handle after first use, so a [walk] following a
    [query] pays for one decode. *)

type t

val open_file : string -> (t, string) result
(** Read and validate the container framing (magic, manifest, section
    table, per-section checksums) plus the embedded store manifest.
    Section bodies are decoded lazily. *)

val of_string : ?display:string -> string -> (t, string) result
(** Same over in-memory bytes; [display] names the bundle in errors. *)

val display : t -> string
val sections : t -> Container.section list
val summary_json : t -> Core.Json.t option
(** The packer's summary object from the manifest. *)

val config : t -> (Core.Json.t option, string) result
(** The scenario/correlation config section, if present. *)

val store_manifest : t -> Store.Manifest.t

val query :
  ?telemetry:Telemetry.Registry.t ->
  ?jobs:int ->
  t ->
  Store.Query.predicate ->
  (Trace.Arena.t list * Store.Query.stats, string) result
(** {!Store.Query.run_native_with} against the embedded segments:
    identical manifest pruning, parallel decode at [jobs] (default
    {!Parallel.Pool.default_jobs}), merge and row filtering as a
    directory-backed store query. With {!Store.Query.all} it returns
    the canonical rows back-link [(host, index)] coordinates index into:
    all embedded segments decoded in manifest order and merged by
    {!Store.Query.merge_native} (hosts with no rows left out). *)

val paths : t -> (Codec.decoded, string) result
(** The correlated causal paths with their back-link table. Cached. *)

val profiles : t -> (Core.Analysis.profile list, string) result
(** Pattern profiles, in {!Core.Pattern.classify} order (most frequent
    first). Cached. *)

val telemetry : t -> (Telemetry.Registry.family list option, string) result
(** The embedded telemetry snapshot, if the packer included one. *)

val resolve :
  t -> link_hosts:string array -> int -> (string * int * Trace.Activity.t, string) result
(** Resolve one back-link, a {!Core.Cag.source} of a decoded vertex, to
    [(hostname, record index, raw activity)]: the record is materialised
    from its canonical row. *)

val resolve_links :
  t ->
  link_hosts:string array ->
  Core.Cag.vertex ->
  ((string * int * Trace.Activity.t) list, string) result
(** Every back-link of a decoded vertex, in {!Core.Cag.sources} order. *)
