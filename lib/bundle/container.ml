module Json = Core.Json
module B = Trace.Binary_format

let magic = "PTZ1"

type section = { name : string; pos : int; len : int }

(* ---- deterministic JSON ---- *)

let rec sort_json = function
  | Json.Obj pairs ->
      Json.Obj
        (List.map (fun (k, v) -> (k, sort_json v)) pairs
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  | Json.List items -> Json.List (List.map sort_json items)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _) as j -> j

(* ---- crc32 (IEEE 802.3, the zlib polynomial) ----

   Slicing-by-8: table [k] advances a byte's contribution by [k] more
   bytes, so eight bytes fold into the crc with eight independent
   lookups instead of a chain of eight. *)

let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to (8 * 256) - 1 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
     done;
     t)

let crc32 ?(pos = 0) ?len s =
  let len = Option.value ~default:(String.length s - pos) len in
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Container.crc32";
  let t = Lazy.force crc_tables in
  let get k b = Array.unsafe_get t ((k lsl 8) lor (b land 0xff)) in
  let word i = Int32.to_int (String.get_int32_le s i) land 0xffffffff in
  let c = ref 0xffffffff and i = ref pos in
  while !i + 8 <= pos + len do
    let lo = !c lxor word !i and hi = word (!i + 4) in
    c :=
      get 7 lo lxor get 6 (lo lsr 8) lxor get 5 (lo lsr 16) lxor get 4 (lo lsr 24)
      lxor get 3 hi lxor get 2 (hi lsr 8) lxor get 1 (hi lsr 16) lxor get 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < pos + len do
    c := get 0 (!c lxor Char.code (String.unsafe_get s !i)) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

(* ---- writing ---- *)

let manifest_string ~manifest_extra sections =
  let section_entries =
    List.map
      (fun (name, body) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("bytes", Json.Int (String.length body));
            ("crc32", Json.Int (crc32 body));
          ])
      sections
  in
  Json.to_string ~indent:true
    (sort_json
       (Json.Obj
          (( "format", Json.Int 1 )
          :: ("kind", Json.String "precisetracer-bundle")
          :: ("sections", Json.List section_entries)
          :: manifest_extra)))

(* The manifest first, then every section straight from its string: the
   bundle is never built in memory. A failure names [path], not the temp
   file, and removes the temp file. *)
let write ~path ~manifest_extra sections =
  let manifest = manifest_string ~manifest_extra sections in
  let tmp = path ^ ".tmp" in
  try
    let bytes =
      Out_channel.with_open_bin tmp (fun oc ->
          (* headers go through a small writer, bodies straight out *)
          let w = B.w_create 64 in
          let output_header () =
            Out_channel.output_string oc (B.w_contents w);
            B.w_drop w (B.w_length w)
          in
          B.w_raw w magic;
          B.w_u32be w (String.length manifest);
          B.w_raw w manifest;
          output_header ();
          List.iter
            (fun (name, body) ->
              B.w_u32be w (String.length name);
              B.w_raw w name;
              B.w_u64be w (String.length body);
              output_header ();
              Out_channel.output_string oc body)
            sections;
          pos_out oc)
    in
    Sys.rename tmp path;
    bytes
  with Sys_error msg | Fun.Finally_raised (Sys_error msg) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    let prefix = tmp ^ ": " in
    let msg =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    raise (Sys_error (path ^ ": " ^ msg))

(* ---- parsing ---- *)

let ( let* ) = Result.bind

let manifest_sections ~what manifest =
  Result.map_error (Printf.sprintf "%s: bundle manifest section table: %s" what)
    (let* items = Json.list_field "sections" manifest in
     Json.map_result
       (fun item ->
         let* name = Json.string_field "name" item in
         let* bytes = Json.int_field "bytes" item in
         let* crc = Json.int_field "crc32" item in
         Ok (name, bytes, crc))
       items)

let parse ~what data =
  let len = String.length data in
  let r = B.reader data ~pos:0 ~len in
  let fail fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "%s: %s" what msg)) fmt in
  if len < 8 || not (String.equal (B.get_bytes r 4) magic) then
    fail "not a PTZ1 bundle at offset 0"
  else
    match Json.of_string (B.get_bytes r (B.get_u32be r)) with
    | exception B.End_of_input -> fail "truncated bundle manifest at offset 4"
    | Error e -> fail "bad bundle manifest at offset 8: %s" e
    | Ok manifest -> (
        let* declared = manifest_sections ~what manifest in
        (* Walk the frames, checking each against the declaration. *)
        let rec frames acc declared =
          let pos = r.B.pos in
          if pos = len then
            match declared with
            | [] -> Ok (List.rev acc)
            | (name, _, _) :: _ -> fail "section %S declared but missing at offset %d" name pos
          else
            match B.get_u32be r with
            | exception B.End_of_input -> fail "truncated section header at offset %d" pos
            | name_len when name_len > len - r.B.pos ->
                fail "section name overruns input at offset %d" pos
            | name_len -> (
                let name = B.get_bytes r name_len in
                let body_len_at = r.B.pos in
                match B.get_u64be r with
                | exception B.End_of_input ->
                    fail "truncated section length at offset %d" body_len_at
                | body_len when body_len < 0 || body_len > len - r.B.pos ->
                    fail "section %S body overruns input at offset %d" name r.B.pos
                | body_len -> (
                    let body_at = r.B.pos in
                    match declared with
                    | [] -> fail "undeclared section %S at offset %d" name pos
                    | (dname, _, _) :: _ when not (String.equal dname name) ->
                        fail "section %S at offset %d where manifest declares %S" name pos dname
                    | (_, dbytes, _) :: _ when dbytes <> body_len ->
                        fail "section %S at offset %d is %d bytes, manifest declares %d" name pos
                          body_len dbytes
                    | (_, _, dcrc) :: declared ->
                        let crc = crc32 ~pos:body_at ~len:body_len data in
                        if crc <> dcrc then
                          fail
                            "section %S fails checksum at offset %d (crc32 %08x, manifest \
                             declares %08x)"
                            name body_at crc dcrc
                        else begin
                          r.B.pos <- body_at + body_len;
                          frames ({ name; pos = body_at; len = body_len } :: acc) declared
                        end))
        in
        let* sections = frames [] declared in
        Ok (manifest, sections))

let find sections name = List.find_opt (fun s -> String.equal s.name name) sections
