(** A compact binary encoding of activity logs.

    Kernel tracing at syscall granularity produces bulky logs (the paper's
    runs log hundreds of thousands of records); the text format spends
    most of its bytes repeating hostnames, program names and near-constant
    timestamps. This encoding keeps collection practical:

    - a string table interns hostnames and program names once;
    - timestamps are delta-encoded per log (monotone, so deltas are
      small), everything integer is LEB128 varints;
    - a magic header ([PTB1]) and record framing catch truncation and
      corruption on load.

    Typical size: 4-6x smaller than the text format on service traces
    (see the [formats] bench). Both formats describe the same
    {!Activity.t}; conversion is lossless. *)

val magic : string
(** The 4-byte file header, ["PTB1"]. *)

(** {1 Codec primitives}

    The one byte writer and the one byte cursor of every PT binary
    format: PTB1 here, the store's PTS1 segments, the bundle's PTZ1
    container and PTP1 path table, and the collection plane's PTC1
    frames and PTA1 acks. Integers are unsigned LEB128 varints
    (zigzag-encoded when signed), strings a uvarint length plus bytes,
    and the fixed-width header fields big-endian. *)

(** {2 Writer}

    A growable byte queue. Encoders append at the end and take
    {!w_contents}; a stream decoder appends what arrives, points a
    {!reader} at the queued bytes ({!w_read}) and drops what it has
    consumed ({!w_drop}). *)

type writer

val w_create : int -> writer
(** An empty queue with room for about [n] bytes; it grows as needed. *)

val w_uvarint : writer -> int -> unit
(** @raise Invalid_argument on a negative value. *)

val w_varint : writer -> int -> unit
val w_raw : writer -> string -> unit

val w_string : writer -> string -> unit
(** A uvarint length, then the bytes. *)

val w_u32be : writer -> int -> unit
val w_u64be : writer -> int -> unit
(** Big-endian 32- and 64-bit fields, for the fixed-width headers of the
    store segment and the bundle container. *)

val w_contents : writer -> string
(** The queued bytes (everything written and not dropped). *)

val w_length : writer -> int
(** How many bytes are queued. *)

val w_drop : writer -> int -> unit
(** Consume [n] bytes from the front.
    @raise Invalid_argument past the queued bytes. *)

(** {2 Reader}

    A bounds-checked cursor over [data.[pos] .. data.[limit - 1]].
    Offsets in its errors are absolute within [data], so a payload read
    in place inside a larger file reports file-relative offsets. *)

exception Corrupt of int * string
(** [Corrupt (offset, msg)]: the bytes at [offset] cannot be what the
    format says. *)

exception End_of_input
(** A read needs bytes past [limit]; the reader's [pos] is left at the
    field that needed them. A whole message treats this as truncation
    ({!decode_frame}); a stream decoder as "wait for more bytes". Raising
    it allocates nothing. *)

type reader = { mutable data : Bytes.t; mutable pos : int; mutable limit : int }

val reader : string -> pos:int -> len:int -> reader
(** A reader over the [len] bytes at [pos].
    @raise Invalid_argument if the region exceeds the string. *)

val w_read : writer -> reader -> unit
(** Point the reader at the writer's queued bytes, in place: no copy, no
    allocation. Valid until the writer is next written to or dropped
    from. *)

val get_uvarint : reader -> int
val get_varint : reader -> int

val get_bytes : reader -> int -> string
(** The next [n] bytes; [End_of_input] if fewer are left. *)

val get_u32be : reader -> int
val get_u64be : reader -> int
(** The fixed-width fields {!w_u32be} and {!w_u64be} write ([get_u32be]
    is never negative). *)

val expect_magic : reader -> string -> unit
(** Match the bytes one at a time, raising [Corrupt] ["bad magic
    (expected "M")"] at the first that differs, so a stream rejects a
    wrong first byte without waiting for the rest. *)

val get_count : reader -> string -> int
(** Read a count varint, raising [Corrupt] if it exceeds the remaining
    input (each counted item takes at least one byte) — the allocation-
    bomb guard for corrupt inputs. *)

val get_index : reader -> 'a array -> string -> 'a
(** [get_index r table what] reads a uvarint index into [table], raising
    [Corrupt] ["<what> index out of range"] past either end. *)

val decode_frame :
  magic:string -> string -> pos:int -> len:int -> (reader -> 'a) -> ('a, string) result
(** The outer shell of every framed payload embedded at [pos] (spanning
    [len] bytes) in [data]: check the region bounds and the [magic]
    prefix, run the body on a reader positioned after the magic and
    limited to the region, and reject trailing bytes. [Corrupt],
    [End_of_input] and [Invalid_argument] escaping the body become
    ["corrupt at offset N: msg"] errors ([End_of_input] reads
    ["unexpected end of input"]; [Invalid_argument] is placed at the
    cursor); offsets are absolute within [data]. *)

(** {2 Interning tables}

    The string, context and flow tables PTB1 and the bundle's PTP1 path
    table share. A message interns every context and flow it mentions
    into per-message tables in first-use order (a context's host and
    program strings are interned when the context first misses), writes
    the tables once, and then refers to entries by dense local index:

    {v
    nstr   uvarint, then nstr strings (uvarint length + bytes)
    nctx   uvarint, then nctx of: host-index program-index pid tid
    nflow  uvarint, then nflow of: src_ip src_port dst_ip dst_port
    v}

    Entries are keyed by process-wide {!Intern} ids. *)

type tables

val tables : unit -> tables

val table_string : tables -> int -> int
(** The local index of a {!Intern.string_id}, assigned on first use. *)

val table_context : tables -> int -> int
(** The local index of an {!Intern.context_id}, interning its host and
    program strings on first use. *)

val table_flow : tables -> int -> int
(** The local index of an {!Intern.flow_id}. *)

val w_tables : writer -> tables -> unit

type table_ids = { string_ids : int array; context_ids : int array; flow_ids : int array }
(** Decoded tables as {!Intern} ids, indexed by local index. *)

val get_tables : reader -> table_ids
(** Read the three tables, interning every entry; an out-of-range string
    index or ip/port raises like any other corrupt field. *)

val is_binary_file : path:string -> bool
(** Whether the file at [path] starts with {!magic}; [false] on
    unreadable or shorter-than-header files. Lets loaders auto-detect
    binary vs text traces without trusting the filename. *)

(** {1 Codec}

    The arena-backed codec the pipeline runs on: table entries are
    interned into the process-wide {!Intern} tables once per file, record
    rows decode straight into {!Arena}s with no per-record allocation.
    Decoding never raises; errors name the offending offset. *)

val encode_native : Arena.t list -> string
(** One log per arena, rows in arena order. *)

val decode_native : string -> (Arena.t list, string) result
(** Rows come back in file order (the order they were encoded), not
    re-sorted; {!Arena.sort_by_time} restores log order when needed. *)

val decode_native_region : string -> pos:int -> len:int -> (Arena.t list, string) result
(** Decode a PTB1 payload embedded at [pos] (spanning [len] bytes) inside
    a larger string — e.g. a segment inside a bundle container — without
    copying it out. Every error offset is absolute within [data], so when
    [data] is a whole container file the offsets are container-relative.
    [decode_native data] is this over the whole string, modulo the
    friendlier whole-file magic message. *)

val save : Arena.t list -> path:string -> unit
(** Write the arenas into one file ({!encode_native}). *)

val load : path:string -> (Arena.t list, string) result
(** Read a file written by {!save} ({!decode_native}). *)
