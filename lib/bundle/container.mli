(** The [PTZ1] single-file bundle container.

    A bundle is a self-contained recording of one tracing run: raw store
    segments, the correlated causal paths with back-links into those
    segments, pattern profiles, the scenario/correlation configuration and
    (optionally) a telemetry snapshot — everything §5.4 debugging needs,
    in one sharable file.

    Layout:

    {v
    "PTZ1"   4-byte magic
    u32be    manifest length M
    M bytes  manifest JSON (sorted keys)
    ...      framed sections, each:
               u32be   name length N
               N bytes section name
               u64be   body length L
               L bytes body
    v}

    The manifest carries [format], [kind], a [sections] table (name, byte
    count and crc32 per section, in file order) and a summary written by
    {!Pack}. Section bodies are opaque here; {!Reader} knows the names.

    Bundles are byte-deterministic: the bytes {!write} writes are a pure
    function of its inputs (sorted JSON keys, fixed section order chosen
    by the packer, no wall-clock anywhere), so packing identical inputs
    twice yields identical files. *)

val magic : string
(** ["PTZ1"]. *)

type section = { name : string; pos : int; len : int }
(** A parsed section: [pos]/[len] delimit the body inside the bundle
    string (bundle-relative offsets). *)

val sort_json : Core.Json.t -> Core.Json.t
(** Recursively sort object keys — the canonical form every JSON payload
    in a bundle is serialised in. *)

val crc32 : ?pos:int -> ?len:int -> string -> int
(** IEEE CRC-32 (the zlib polynomial) of a substring; guards each section
    against silent corruption.
    @raise Invalid_argument if the substring is out of bounds. *)

val write :
  path:string -> manifest_extra:(string * Core.Json.t) list -> (string * string) list -> int
(** [write ~path ~manifest_extra sections] writes the bundle of
    [(name, body)] sections, in the given order, and returns its size in
    bytes. [manifest_extra] adds summary fields to the manifest object.
    Each section's crc32 is taken first; then the magic, the manifest and
    every section are streamed to [path ^ ".tmp"], which is renamed to
    [path] — the bundle is never built in memory, and a reader never
    sees a partial file.
    @raise Sys_error naming [path] (not the temp file) when the write or
    rename fails; the temp file is removed. *)

val parse : what:string -> string -> (Core.Json.t * section list, string) result
(** Validate the framing: magic, manifest JSON, every declared section
    present with the declared length and checksum, no trailing or
    undeclared bytes. [what] names the bundle in error messages; every
    error names the bundle-relative offset it was detected at. *)

val find : section list -> string -> section option
