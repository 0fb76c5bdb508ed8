(** Reading a store back: time-range and host-predicate queries.

    Selection happens in two stages. First the {!Manifest} prunes: only
    segments whose index header overlaps the predicate are opened at all,
    so a query over a narrow time window of a long run decodes a small
    fraction of the store. Then the surviving segments are decoded into
    arenas, rows from different segments are merged back into one sorted
    arena per host, and rows are filtered by integer compares. *)

type predicate = {
  since_ns : int option;  (** Inclusive lower timestamp bound. *)
  until_ns : int option;  (** Inclusive upper timestamp bound. *)
  hosts : string list option;  (** Restrict to these hostnames. *)
}

val all : predicate

val predicate :
  ?since_ns:int -> ?until_ns:int -> ?hosts:string list -> unit -> predicate

type stats = {
  segments_total : int;
  segments_scanned : int;  (** Segments actually decoded. *)
  records_scanned : int;  (** Records in the decoded segments. *)
  records_returned : int;
  seconds : float;  (** Wall time of the whole query. *)
}

val pp_stats : Format.formatter -> stats -> unit

val select : Manifest.t -> predicate -> Segment.meta list
(** The manifest-level pruning alone (exposed for tests and [stat]). *)

val merge_native : Trace.Arena.t list list -> Trace.Arena.t list
(** Merge decoded segments into the canonical record order: rows of the
    same hostname are concatenated in segment order and stable-sorted
    per host ({!Trace.Arena.sort_by_time}), so rows tied on (timestamp,
    context, kind) keep their segment order; result ordered by
    hostname, with no arena for a host that has no rows. Every reader
    of a store or bundle — queries, the bundle packer's back-links,
    [Bundle.Reader] — uses this one order. *)

val run_native_with :
  ?telemetry:Telemetry.Registry.t ->
  ?jobs:int ->
  read:(Segment.meta -> (Trace.Arena.t list, string) result) ->
  Manifest.t ->
  predicate ->
  (Trace.Arena.t list * stats, string) result
(** The query engine over an abstract segment source: [read] resolves a
    selected meta to its decoded arenas (from a directory, or from
    sections embedded in a bundle container — see [Bundle.Reader]).
    Segments decode straight into arenas; merge and filter are integer
    row copies. All pruning, parallel decode, merge and record filtering
    is shared; the semantics and determinism guarantees of
    {!run_native} apply. *)

val run_native :
  ?telemetry:Telemetry.Registry.t ->
  ?jobs:int ->
  dir:string ->
  predicate ->
  (Trace.Arena.t list * stats, string) result
(** Execute a query against the store at [dir]: one arena per matching
    host, in {!merge_native} order. Query wall time and
    scan/return counts are recorded into [telemetry] under
    [pt_store_query_*].

    Surviving segments are decoded in parallel across a transient pool
    of [jobs] domains (default {!Parallel.Pool.default_jobs}: 1 unless
    [PT_JOBS] says otherwise).
    Decoding is per-segment and the results are merged in manifest order,
    so output — including which segment a failing query blames — is
    identical at any [jobs]. [jobs <= 1] or a single segment decodes
    inline with no domains spawned. *)
