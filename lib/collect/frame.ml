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

let encode_payload_arena arena = Trace.Binary_format.encode_native [ arena ]

let encode ~seq ~oldest ~host ~watermark ~payload =
  if seq < 0 then invalid_arg "Frame.encode: negative seq";
  if oldest < 0 then invalid_arg "Frame.encode: negative oldest";
  if String.length host > max_host_len then invalid_arg "Frame.encode: host too long";
  let buf = Buffer.create (String.length payload + 32) in
  Buffer.add_string buf magic;
  B.put_uvarint buf seq;
  B.put_uvarint buf oldest;
  B.put_uvarint buf (String.length host);
  Buffer.add_string buf host;
  B.put_uvarint buf (Sim_time.to_ns watermark);
  B.put_uvarint buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let encode_ack seq =
  if seq < 0 then invalid_arg "Frame.encode_ack: negative seq";
  let buf = Buffer.create 12 in
  Buffer.add_string buf ack_magic;
  B.put_uvarint buf seq;
  Buffer.contents buf

type t = {
  seq : int;
  oldest : int;
  host : string;
  watermark : Sim_time.t;
  arena : Trace.Arena.t;  (* decoded payload rows, native representation *)
}

let records f = Trace.Arena.length f.arena

(* ---- incremental decoding ----

   The stream window lives in a growable byte buffer with a consumed
   prefix; parsing runs over the window and either completes a frame
   (the window advances), runs off the end ([Need_more] — wait for the
   next feed), or hits a definitive inconsistency ([Bad] — sticky, the
   stream cannot be resynchronised). Offsets in errors are absolute
   stream positions, mirroring Binary_format's corruption reports. *)

exception Need_more
exception Bad of int * string

type window = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* end of valid data *)
  mutable base : int;  (* absolute stream offset of [start] *)
  mutable failed : string option;
}

let window_create () =
  { buf = Bytes.create 4096; start = 0; stop = 0; base = 0; failed = None }

let window_len w = w.stop - w.start

let window_feed w s =
  let n = String.length s in
  if n > 0 then begin
    if w.stop + n > Bytes.length w.buf then begin
      (* compact, then grow if still needed *)
      let live = window_len w in
      Bytes.blit w.buf w.start w.buf 0 live;
      w.start <- 0;
      w.stop <- live;
      if live + n > Bytes.length w.buf then begin
        let cap = max (live + n) (2 * Bytes.length w.buf) in
        let nb = Bytes.create cap in
        Bytes.blit w.buf 0 nb 0 live;
        w.buf <- nb
      end
    end;
    Bytes.blit_string s 0 w.buf w.stop n;
    w.stop <- w.stop + n
  end

type cursor = { w : window; mutable pos : int }

let byte c =
  if c.pos >= c.w.stop then raise Need_more;
  let b = Char.code (Bytes.get c.w.buf c.pos) in
  c.pos <- c.pos + 1;
  b

let abs_pos c = c.w.base + (c.pos - c.w.start)

let get_uvarint c =
  let rec go shift acc =
    if shift > 62 then raise (Bad (abs_pos c, "varint too long"));
    let b = byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let expect_magic c m =
  String.iter
    (fun ch ->
      let at = abs_pos c in
      if byte c <> Char.code ch then
        raise (Bad (at, Printf.sprintf "bad magic (expected %S)" m)))
    m

let get_bytes c n =
  if c.pos + n > c.w.stop then raise Need_more;
  let s = Bytes.sub_string c.w.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* Run one parse attempt: on success consume the bytes and return the
   value; on [Need_more] leave the window untouched; on [Bad] latch the
   error. *)
let attempt w parse =
  match w.failed with
  | Some e -> Error e
  | None -> (
      if window_len w = 0 then Ok None
      else
        let c = { w; pos = w.start } in
        match parse c with
        | v ->
            w.base <- w.base + (c.pos - w.start);
            w.start <- c.pos;
            Ok (Some v)
        | exception Need_more -> Ok None
        | exception Bad (off, msg) ->
            let e = Printf.sprintf "offset %d: %s" off msg in
            w.failed <- Some e;
            Error e)

let parse_frame c =
  expect_magic c magic;
  let seq = get_uvarint c in
  let oldest = get_uvarint c in
  let host_len_at = abs_pos c in
  let host_len = get_uvarint c in
  if host_len > max_host_len then
    raise (Bad (host_len_at, Printf.sprintf "host length %d exceeds limit" host_len));
  let host = get_bytes c host_len in
  let watermark = Sim_time.of_ns (get_uvarint c) in
  let plen_at = abs_pos c in
  let plen = get_uvarint c in
  if plen > max_payload_len then
    raise (Bad (plen_at, Printf.sprintf "payload length %d exceeds limit" plen));
  let payload_at = abs_pos c in
  let payload = get_bytes c plen in
  match Trace.Binary_format.decode_native payload with
  | Error e -> raise (Bad (payload_at, Printf.sprintf "payload: %s" e))
  | Ok arenas ->
      let arena =
        match arenas with
        | [] -> Trace.Arena.create ~host ()
        | [ a ] ->
            if not (String.equal (Trace.Arena.hostname a) host) then
              raise (Bad (payload_at, "payload hostname differs from frame header"));
            a
        | _ -> raise (Bad (payload_at, "payload holds more than one log"))
      in
      { seq; oldest; host; watermark; arena }

module Decoder = struct
  type frame = t
  type nonrec t = window

  let create () = window_create ()
  let feed = window_feed
  let next w : (frame option, string) result = attempt w parse_frame

  let drain w =
    let rec go acc =
      match next w with
      | Ok (Some f) -> go (f :: acc)
      | Ok None -> Ok (List.rev acc)
      | Error e -> Error e
    in
    go []

  let buffered = window_len
end

module Ack_decoder = struct
  type nonrec t = window

  let create () = window_create ()
  let feed = window_feed

  let parse_ack c =
    expect_magic c ack_magic;
    get_uvarint c

  let next w = attempt w parse_ack

  let drain w =
    let rec go acc =
      match next w with
      | Ok (Some s) -> go (s :: acc)
      | Ok None -> Ok (List.rev acc)
      | Error e -> Error e
    in
    go []
end
