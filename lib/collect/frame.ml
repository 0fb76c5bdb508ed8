module Sim_time = Simnet.Sim_time
module B = Trace.Binary_format

let magic = "PTC1"
let ack_magic = "PTA1"

(* A corrupt length field must not park the decoder forever waiting for
   bytes that will never come; anything past these bounds is corruption,
   not a short read. *)
let max_host_len = 4096
let max_payload_len = 1 lsl 28

(* ---- encoding ---- *)

let encode_payload_arena arena = B.encode_native [ arena ]

let encode ~seq ~oldest ~host ~watermark ~payload =
  if seq < 0 then invalid_arg "Frame.encode: negative seq";
  if oldest < 0 then invalid_arg "Frame.encode: negative oldest";
  if String.length host > max_host_len then invalid_arg "Frame.encode: host too long";
  let w = B.w_create (String.length payload + 32) in
  B.w_raw w magic;
  B.w_uvarint w seq;
  B.w_uvarint w oldest;
  B.w_string w host;
  B.w_varint w (Sim_time.to_ns watermark);
  B.w_string w payload;
  B.w_contents w

let encode_ack seq =
  if seq < 0 then invalid_arg "Frame.encode_ack: negative seq";
  let w = B.w_create 12 in
  B.w_raw w ack_magic;
  B.w_uvarint w seq;
  B.w_contents w

type t = {
  seq : int;
  oldest : int;
  host : string;
  watermark : Sim_time.t;
  arena : Trace.Arena.t;  (* decoded payload rows, native representation *)
}

let records f = Trace.Arena.length f.arena

(* ---- incremental decoding ----

   Fed bytes wait in a {!B.writer} queue. Each attempt points one reused
   reader at the queued bytes and parses: a complete frame drops its
   bytes from the queue, [End_of_input] leaves them for the next feed,
   and [Corrupt] is sticky, since the stream cannot be resynchronised.
   Offsets in errors are absolute stream positions. *)

type stream = {
  queue : B.writer;
  r : B.reader;
  mutable base : int;  (* absolute stream offset of the first queued byte *)
  mutable failed : string option;
}

let stream_create () =
  { queue = B.w_create 4096; r = B.reader "" ~pos:0 ~len:0; base = 0; failed = None }

let feed s bytes = B.w_raw s.queue bytes

let attempt s parse =
  match s.failed with
  | Some e -> Error e
  | None -> (
      let r = s.r in
      B.w_read s.queue r;
      let start = r.pos in
      match parse r with
      | v ->
          B.w_drop s.queue (r.pos - start);
          s.base <- s.base + (r.pos - start);
          Ok (Some v)
      | exception B.End_of_input -> Ok None
      | exception B.Corrupt (off, msg) ->
          let e = Printf.sprintf "offset %d: %s" (s.base + (off - start)) msg in
          s.failed <- Some e;
          Error e)

let drain next s =
  let rec go acc =
    match next s with
    | Ok (Some v) -> go (v :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

(* A uvarint length no greater than [limit] whose bytes are all queued:
   the region's start, with the reader moved past it. *)
let get_region r ~limit what =
  let at = r.B.pos in
  let n = B.get_uvarint r in
  if n < 0 || n > limit then
    raise (B.Corrupt (at, Printf.sprintf "%s length %d exceeds limit" what n));
  if n > r.B.limit - r.B.pos then raise B.End_of_input;
  let start = r.B.pos in
  r.B.pos <- start + n;
  start

let parse_frame r =
  B.expect_magic r magic;
  let seq = B.get_uvarint r in
  let oldest = B.get_uvarint r in
  let host_at = get_region r ~limit:max_host_len "host" in
  let host = Bytes.sub_string r.B.data host_at (r.B.pos - host_at) in
  let watermark = Sim_time.of_ns (B.get_varint r) in
  let payload_at = get_region r ~limit:max_payload_len "payload" in
  let len = r.B.pos - payload_at in
  let bad msg = raise (B.Corrupt (payload_at, msg)) in
  (* The payload decodes in place from the queued bytes, which nothing
     touches until this returns. Only a corrupt one is copied out and
     decoded again, so that its error offset counts from the payload's
     first byte. *)
  let data = Bytes.unsafe_to_string r.B.data in
  let decoded =
    match B.decode_native_region data ~pos:payload_at ~len with
    | Ok _ as ok -> ok
    | Error _ -> B.decode_native (String.sub data payload_at len)
  in
  match decoded with
  | Error e -> bad (Printf.sprintf "payload: %s" e)
  | Ok [] -> { seq; oldest; host; watermark; arena = Trace.Arena.create ~host () }
  | Ok [ a ] ->
      if not (String.equal (Trace.Arena.hostname a) host) then
        bad "payload hostname differs from frame header";
      { seq; oldest; host; watermark; arena = a }
  | Ok _ -> bad "payload holds more than one log"

module Decoder = struct
  type frame = t
  type nonrec t = stream

  let create = stream_create
  let feed = feed
  let next s : (frame option, string) result = attempt s parse_frame
  let drain = drain next
  let buffered s = B.w_length s.queue
end

module Ack_decoder = struct
  type nonrec t = stream

  let create = stream_create
  let feed = feed

  let next s =
    attempt s (fun r ->
        B.expect_magic r ack_magic;
        B.get_uvarint r)

  let drain = drain next
end
