(** One on-disk store segment.

    A segment is an append-once file holding a slice of the trace in the
    existing {!Trace.Binary_format} ([PTB1]) encoding, prefixed by a
    small self-describing index header:

    {v
    "PTS1"  4-byte segment magic
    u32be   header length H
    H bytes header JSON (the meta record below)
    ...     PTB1 payload
    v}

    The header duplicates what the store {!Manifest} records, so a
    manifest can be rebuilt from the segment files alone and a segment
    can be sanity-checked without decoding its (much larger) payload. *)

type meta = {
  id : int;  (** Unique within a store; assigned by the manifest. *)
  file : string;  (** Basename inside the store directory. *)
  min_ts_ns : int;  (** Earliest activity timestamp (local clocks). *)
  max_ts_ns : int;  (** Latest activity timestamp. *)
  hosts : string list;  (** Sorted hostnames present. *)
  records : int;  (** Activities in the payload. *)
  bytes : int;  (** Payload size in bytes. *)
  raw_records : int;  (** Activities in the batch before reduction. *)
  raw_bytes : int;  (** Encoded size of the batch before reduction. *)
  policy : string;  (** Reduction provenance ({!Policy.to_string}). *)
}

val magic : string
(** ["PTS1"]. *)

val filename : int -> string
(** Canonical basename for segment [id], e.g. ["seg-000042.pts"]. *)

val overlaps : meta -> since_ns:int option -> until_ns:int option -> bool
(** Whether the segment's time range intersects the (inclusive) bounds. *)

val meta_to_json : meta -> Core.Json.t
val meta_of_json : Core.Json.t -> (meta, string) result

val encode_native :
  id:int ->
  policy:string ->
  ?raw_records:int ->
  ?raw_bytes:int ->
  Trace.Arena.t list ->
  meta * string
(** Encode the arenas (in list and row order) as segment [id]: the meta
    describing them plus the exact bytes {!write_native} puts on disk.
    [raw_records]/[raw_bytes] record the batch's pre-reduction size and
    default to the written values (i.e. no reduction). The bundle packer
    embeds these bytes without a staging directory.
    @raise Invalid_argument when the arenas hold no row (the caller
    should simply not emit a segment). *)

val write : dir:string -> meta -> string -> unit
(** Write {!encode_native}'s bytes to [dir] under [meta.file]. Raises
    [Sys_error] on I/O failure. *)

val write_native :
  dir:string ->
  id:int ->
  policy:string ->
  ?raw_records:int ->
  ?raw_bytes:int ->
  Trace.Arena.t list ->
  meta
(** {!encode_native} and write the bytes to [dir]. Raises [Sys_error] on
    I/O failure. *)

val read_native : dir:string -> meta -> (Trace.Arena.t list, string) result
(** Decode the payload straight into arenas — no per-record allocation —
    after verifying magic, header/manifest consistency (id and record
    count) and payload integrity. Rows come back in payload order (the
    writer sorts before encoding). *)

val read_embedded_native :
  data:string -> pos:int -> len:int -> what:string -> meta -> (Trace.Arena.t list, string) result
(** Like {!read_native}, but over a segment embedded at [pos] (spanning
    [len] bytes) inside a larger string — a section of a bundle
    container — with no copying. [what] names the container in error
    messages; all error offsets are absolute within [data], i.e.
    container-relative. *)

val parse_header_at :
  string -> pos:int -> len:int -> what:string -> (meta * int * int, string) result
(** Parse only the index header of an embedded segment: returns the meta
    and the payload's (offset, length) region within the input string. *)

val read_meta : path:string -> (meta, string) result
(** Read only the index header — O(header) regardless of payload size. *)
