let magic = "PTB1"

(* ---- the writer: a growable byte queue ----

   Every PT encoder appends here; the incremental decoders (the
   collection plane's PTC1/PTA1 streams) and the simulated TCP side
   channel also consume from the front ([start]). The record loop emits
   through [unsafe_set] after one up-front [w_ensure] per row: [Buffer]'s
   per-char bounds checks cost real time at millions of varints per
   second. Unsigned LEB128 varints; signed values zigzagged. *)
type writer = { mutable bytes : Bytes.t; mutable start : int; mutable wpos : int }

let w_create n = { bytes = Bytes.create (max 64 n); start = 0; wpos = 0 }

(* Room for [n] more bytes: slide the unconsumed bytes to the front,
   then grow if that is not enough. *)
let w_ensure w n =
  let cap = Bytes.length w.bytes in
  if w.wpos + n > cap then begin
    let live = w.wpos - w.start in
    let dst = if live + n > cap then Bytes.create (max (live + n) (2 * cap)) else w.bytes in
    Bytes.blit w.bytes w.start dst 0 live;
    w.bytes <- dst;
    w.start <- 0;
    w.wpos <- live
  end

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (-(n land 1))

(* An explicit raise, not [assert]: asserts compile out under --release,
   and a negative here (e.g. a size that went negative upstream) must
   never silently emit bytes the decoder cannot reject. *)
let negative n = invalid_arg (Printf.sprintf "Binary_format.w_uvarint: negative value %d" n)

(* Raw varint store into pre-ensured space: the record loop reserves one
   row's worst case up front and skips the per-field capacity check. The
   caller guarantees [n >= 0] and room for 10 bytes at [pos]. *)
let unsafe_uv bytes pos n =
  let n = ref n and p = ref pos in
  while !n >= 0x80 do
    Bytes.unsafe_set bytes !p (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    incr p;
    n := !n lsr 7
  done;
  Bytes.unsafe_set bytes !p (Char.unsafe_chr !n);
  !p + 1

let w_uvarint w n =
  if n < 0 then negative n;
  w_ensure w 10;
  w.wpos <- unsafe_uv w.bytes w.wpos n

let w_varint w n = w_uvarint w (zigzag n)

let w_raw w s =
  let n = String.length s in
  w_ensure w n;
  Bytes.blit_string s 0 w.bytes w.wpos n;
  w.wpos <- w.wpos + n

let w_string w s =
  w_uvarint w (String.length s);
  w_raw w s

(* Big-endian fixed-width fields: the store segment and bundle container
   headers. *)
let w_u32be w n =
  w_ensure w 4;
  Bytes.set_int32_be w.bytes w.wpos (Int32.of_int n);
  w.wpos <- w.wpos + 4

let w_u64be w n =
  w_ensure w 8;
  Bytes.set_int64_be w.bytes w.wpos (Int64.of_int n);
  w.wpos <- w.wpos + 8

let w_contents w = Bytes.sub_string w.bytes w.start (w.wpos - w.start)
let w_length w = w.wpos - w.start

let w_drop w n =
  if n < 0 || n > w_length w then invalid_arg "Binary_format.w_drop: beyond the queued bytes";
  w.start <- w.start + n

(* ---- the reader ----

   [limit] is one past the last readable byte: decoding an embedded
   payload (a segment inside a bundle container) sets [pos]/[limit] to the
   payload's region, and every offset in a [Corrupt] error stays absolute
   within [data] — i.e. container-relative with no copying. Running off
   [limit] raises [End_of_input] with [pos] left at the field that needed
   the bytes: corruption for a whole message, "need more" for a stream. *)
type reader = { mutable data : Bytes.t; mutable pos : int; mutable limit : int }

exception Corrupt of int * string
exception End_of_input

let reader data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Binary_format.reader: region exceeds input";
  { data = Bytes.unsafe_of_string data; pos; limit = pos + len }

let w_read w r =
  r.data <- w.bytes;
  r.pos <- w.start;
  r.limit <- w.wpos

let byte r =
  if r.pos >= r.limit then raise End_of_input;
  let c = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  c

(* A loop over local refs, not a local recursive function: the closure
   such a function captures [r] in would be allocated on every call. *)
let get_uvarint r =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then raise (Corrupt (r.pos, "varint too long"));
    let b = byte r in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !acc

let get_varint r = unzigzag (get_uvarint r)

(* Every table entry and record occupies at least one byte, so any count
   larger than the remaining input is corrupt. Checking up front keeps a
   byte-flipped varint from driving [Array.init]/[List.init] into an
   allocation bomb before the truncation would be noticed. *)
let get_count r what =
  let n = get_uvarint r in
  if n > r.limit - r.pos then
    raise (Corrupt (r.pos, Printf.sprintf "%s count %d exceeds remaining input" what n));
  n

let get_bytes r n =
  if n > r.limit - r.pos then raise End_of_input;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_string r =
  let n = get_uvarint r in
  if r.pos + n > r.limit then raise (Corrupt (r.pos, "string overruns input"));
  get_bytes r n

let get_index r table what =
  let i = get_uvarint r in
  if i < 0 || i >= Array.length table then
    raise (Corrupt (r.pos, what ^ " index out of range"));
  table.(i)

(* Byte by byte, so a stream decoder rejects a wrong first byte without
   waiting for the rest; the offset is the first byte that differs. *)
let expect_magic r m =
  for i = 0 to String.length m - 1 do
    if byte r <> Char.code m.[i] then
      raise (Corrupt (r.pos - 1, Printf.sprintf "bad magic (expected %S)" m))
  done

let get_u32be r =
  if r.limit - r.pos < 4 then raise End_of_input;
  let v = Int32.to_int (Bytes.get_int32_be r.data r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let get_u64be r =
  if r.limit - r.pos < 8 then raise End_of_input;
  let v = Int64.to_int (Bytes.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  v

(* [decode_frame] is every framed payload's outer shell: region bounds,
   magic, the body, then no trailing bytes. Offsets stay absolute within
   [data]; [Invalid_argument] from a constructor the body calls (an ip out
   of range, a CAG edge the builder refuses) is reported at the cursor. *)
let decode_frame ~magic data ~pos ~len body =
  let m = String.length magic in
  if pos < 0 || len < 0 || pos + len > String.length data then
    Error (Printf.sprintf "corrupt at offset %d: region [%d, %d) exceeds input" pos pos (pos + len))
  else if len < m || not (String.equal (String.sub data pos m) magic) then
    Error (Printf.sprintf "corrupt at offset %d: no %s magic" pos magic)
  else begin
    let r = reader data ~pos:(pos + m) ~len:(len - m) in
    match body r with
    | v ->
        if r.pos <> r.limit then
          Error (Printf.sprintf "corrupt at offset %d: trailing garbage" r.pos)
        else Ok v
    | exception End_of_input ->
        Error (Printf.sprintf "corrupt at offset %d: unexpected end of input" r.pos)
    | exception Corrupt (p, msg) -> Error (Printf.sprintf "corrupt at offset %d: %s" p msg)
    | exception Invalid_argument msg ->
        Error (Printf.sprintf "corrupt at offset %d: %s" r.pos msg)
  end

(* ---- interning tables ---- *)

(* Contexts and flows repeat across most records (long-lived workers,
   persistent connections), so both are interned into per-message tables
   written once; each record then carries two small table indices. The
   tables are built over process-wide {!Intern} ids — a hash of two ints
   per distinct attribute, no string hashing. Each maps a global id to
   its dense local index through a flat array indexed by global id (ids
   are dense), grown when an id issued after [tables ()] shows up. *)
type local = { mutable map : int array; mutable rev : int list; mutable next : int }

let local_create size = { map = Array.make (max 1 size) (-1); rev = []; next = 0 }

let local_index l id =
  if id >= Array.length l.map then begin
    let grown = Array.make (max (id + 1) (2 * Array.length l.map)) (-1) in
    Array.blit l.map 0 grown 0 (Array.length l.map);
    l.map <- grown
  end;
  let i = l.map.(id) in
  if i >= 0 then i
  else begin
    let i = l.next in
    l.map.(id) <- i;
    l.rev <- id :: l.rev;
    l.next <- i + 1;
    i
  end

type tables = { t_strings : local; t_contexts : local; t_flows : local }

let tables () =
  let n_strings, n_contexts, n_flows = Intern.counts () in
  {
    t_strings = local_create n_strings;
    t_contexts = local_create n_contexts;
    t_flows = local_create n_flows;
  }

let table_string t sid = local_index t.t_strings sid
let table_flow t fid = local_index t.t_flows fid

(* A context's strings are interned exactly when the context itself first
   misses: host, then program. *)
let table_context t cid =
  let before = t.t_contexts.next in
  let i = local_index t.t_contexts cid in
  if t.t_contexts.next > before then begin
    let host, program, _, _ = Intern.context_parts_of_id cid in
    ignore (table_string t host);
    ignore (table_string t program)
  end;
  i

let w_tables w t =
  w_uvarint w t.t_strings.next;
  List.iter (fun sid -> w_string w (Intern.string_of_id sid)) (List.rev t.t_strings.rev);
  w_uvarint w t.t_contexts.next;
  List.iter
    (fun cid ->
      let host, program, pid, tid = Intern.context_parts_of_id cid in
      w_uvarint w (table_string t host);
      w_uvarint w (table_string t program);
      w_uvarint w pid;
      w_uvarint w tid)
    (List.rev t.t_contexts.rev);
  w_uvarint w t.t_flows.next;
  List.iter
    (fun fid ->
      let src_ip, src_port, dst_ip, dst_port = Intern.flow_parts_of_id fid in
      w_uvarint w src_ip;
      w_uvarint w src_port;
      w_uvarint w dst_ip;
      w_uvarint w dst_port)
    (List.rev t.t_flows.rev)

type table_ids = { string_ids : int array; context_ids : int array; flow_ids : int array }

(* Table entries are interned into the process-wide tables once each. A
   corrupt input may intern a few garbage entries before the error is
   noticed; the pollution is bounded by the table sizes, which
   [get_count] bounds by the input length. *)
let get_tables r =
  let string_count = get_count r "string table" in
  let string_ids = Array.init string_count (fun _ -> Intern.string_id (get_string r)) in
  let context_count = get_count r "context table" in
  let context_ids =
    Array.init context_count (fun _ ->
        let host = get_index r string_ids "string" in
        let program = get_index r string_ids "string" in
        let pid = get_uvarint r in
        let tid = get_uvarint r in
        Intern.context_id_parts ~host ~program ~pid ~tid)
  in
  let flow_count = get_count r "flow table" in
  let flow_ids =
    Array.init flow_count (fun _ ->
        let src_ip = get_uvarint r in
        let src_port = get_uvarint r in
        let dst_ip = get_uvarint r in
        let dst_port = get_uvarint r in
        (* validates ip/port ranges, raising Invalid_argument *)
        Intern.flow_id_parts ~src_ip ~src_port ~dst_ip ~dst_port)
  in
  { string_ids; context_ids; flow_ids }

(* ---- encoding ---- *)

(* Tables are filled in traversal order (per log: hostname; per record:
   context host, context program, context, flow), so the bytes depend
   only on the rows. *)
let encode_native arenas =
  let buf = w_create 65_536 in
  w_raw buf magic;
  let t = tables () in
  let local_string = table_string t
  and local_context = table_context t
  and local_flow = table_flow t in
  (* pre-intern so the tables can be written before the records *)
  List.iter
    (fun a ->
      ignore (local_string (Arena.host_sid a));
      Arena.iter_native a (fun ~kind:_ ~ts:_ ~ctx ~flow ~size:_ ->
          ignore (local_context ctx);
          ignore (local_flow flow)))
    arenas;
  w_tables buf t;
  w_uvarint buf (List.length arenas);
  List.iter
    (fun a ->
      w_uvarint buf (local_string (Arena.host_sid a));
      w_uvarint buf (Arena.length a);
      let prev_ts = ref 0 in
      Arena.iter_native a (fun ~kind ~ts ~ctx ~flow ~size ->
          if size < 0 then negative size;
          (* worst case per row: 1 + 10 + 5 + 5 + 5 varint bytes *)
          w_ensure buf 26;
          let b = buf.bytes in
          let p = unsafe_uv b buf.wpos kind in
          let p = unsafe_uv b p (zigzag (ts - !prev_ts)) in
          prev_ts := ts;
          let p = unsafe_uv b p (local_context ctx) in
          let p = unsafe_uv b p (local_flow flow) in
          buf.wpos <- unsafe_uv b p size))
    arenas;
  w_contents buf

(* The zero-copy decode: table entries are interned into the process-wide
   {!Intern} tables once each ({!get_tables}), then every record row is
   five varint reads and an {!Arena.append} — no string, context or flow
   allocation per record. [Corrupt] offsets are absolute within [data],
   counts are checked against the remaining input before any allocation,
   and nothing escapes as an exception. *)
let decode_native_region data ~pos ~len =
  decode_frame ~magic data ~pos ~len (fun r ->
      let { string_ids; context_ids = contexts; flow_ids = flows } = get_tables r in
      let context_count = Array.length contexts and flow_count = Array.length flows in
      let log_count = get_count r "log" in
      List.init log_count (fun _ ->
          let host = get_index r string_ids "string" in
          let n = get_count r "record" in
          let a = Arena.create_sid ~capacity:(max 1 n) host in
          let prev_ts = ref 0 in
          for _ = 1 to n do
            let code = get_uvarint r in
            if code < 0 || code > 3 then
              raise (Corrupt (r.pos, Printf.sprintf "bad kind code %d" code));
            let ts = !prev_ts + get_varint r in
            prev_ts := ts;
            let ctx = get_uvarint r in
            if ctx < 0 || ctx >= context_count then
              raise (Corrupt (r.pos, "context index out of range"));
            let flow = get_uvarint r in
            if flow < 0 || flow >= flow_count then
              raise (Corrupt (r.pos, "flow index out of range"));
            let size = get_uvarint r in
            Arena.append a ~kind:code ~ts ~ctx:contexts.(ctx) ~flow:flows.(flow) ~size
          done;
          a))

let is_binary data =
  String.length data >= 4 && String.equal (String.sub data 0 4) magic

let decode_native data =
  if not (is_binary data) then Error "not a PTB1 file"
  else decode_native_region data ~pos:0 ~len:(String.length data)

let save arenas ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode_native arenas))

let is_binary_file ~path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic 4 with
          | head -> String.equal head magic
          | exception End_of_file -> false)

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      decode_native data)
