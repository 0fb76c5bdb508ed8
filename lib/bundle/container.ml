module Json = Core.Json

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

(* ---- fixed-width integers ---- *)

let u64be n =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((n lsr ((7 - i) * 8)) land 0xff))
  done;
  Bytes.to_string b

let read_u64be s pos =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

(* ---- crc32 (IEEE 802.3, the zlib polynomial) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(pos = 0) ?len s =
  let len = Option.value ~default:(String.length s - pos) len in
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* ---- assembling ---- *)

let assemble ~manifest_extra sections =
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
  let manifest =
    sort_json
      (Json.Obj
         (( "format", Json.Int 1 )
          :: ("kind", Json.String "precisetracer-bundle")
          :: ("sections", Json.List section_entries)
          :: manifest_extra))
  in
  let manifest_str = Json.to_string ~indent:true manifest in
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf magic;
  Trace.Binary_format.put_u32be buf (String.length manifest_str);
  Buffer.add_string buf manifest_str;
  List.iter
    (fun (name, body) ->
      Trace.Binary_format.put_u32be buf (String.length name);
      Buffer.add_string buf name;
      Buffer.add_string buf (u64be (String.length body));
      Buffer.add_string buf body)
    sections;
  Buffer.contents buf

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
  if len < 8 || not (String.equal (String.sub data 0 4) magic) then
    Error (Printf.sprintf "%s: not a PTZ1 bundle at offset 0" what)
  else begin
    let manifest_len = Trace.Binary_format.read_u32be data 4 in
    if manifest_len < 0 || 8 + manifest_len > len then
      Error (Printf.sprintf "%s: truncated bundle manifest at offset 4" what)
    else
      match Json.of_string (String.sub data 8 manifest_len) with
      | Error e -> Error (Printf.sprintf "%s: bad bundle manifest at offset 8: %s" what e)
      | Ok manifest -> (
          let* declared = manifest_sections ~what manifest in
          (* Walk the frames, checking each against the declaration. *)
          let rec frames acc declared pos =
            if pos = len then
              match declared with
              | [] -> Ok (List.rev acc)
              | (name, _, _) :: _ ->
                  Error
                    (Printf.sprintf "%s: section %S declared but missing at offset %d" what name
                       pos)
            else if len - pos < 4 then
              Error (Printf.sprintf "%s: truncated section header at offset %d" what pos)
            else begin
              let name_len = Trace.Binary_format.read_u32be data pos in
              if name_len < 0 || name_len > len - pos - 4 then
                Error (Printf.sprintf "%s: section name overruns input at offset %d" what pos)
              else begin
                let name = String.sub data (pos + 4) name_len in
                let body_len_at = pos + 4 + name_len in
                if len - body_len_at < 8 then
                  Error
                    (Printf.sprintf "%s: truncated section length at offset %d" what body_len_at)
                else begin
                  let body_len = read_u64be data body_len_at in
                  let body_at = body_len_at + 8 in
                  if body_len < 0 || body_len > len - body_at then
                    Error
                      (Printf.sprintf "%s: section %S body overruns input at offset %d" what name
                         body_at)
                  else
                    match declared with
                    | [] ->
                        Error
                          (Printf.sprintf "%s: undeclared section %S at offset %d" what name pos)
                    | (dname, dbytes, dcrc) :: declared ->
                        if not (String.equal dname name) then
                          Error
                            (Printf.sprintf
                               "%s: section %S at offset %d where manifest declares %S" what name
                               pos dname)
                        else if dbytes <> body_len then
                          Error
                            (Printf.sprintf
                               "%s: section %S at offset %d is %d bytes, manifest declares %d"
                               what name pos body_len dbytes)
                        else begin
                          let crc = crc32 ~pos:body_at ~len:body_len data in
                          if crc <> dcrc then
                            Error
                              (Printf.sprintf
                                 "%s: section %S fails checksum at offset %d (crc32 %08x, \
                                  manifest declares %08x)"
                                 what name body_at crc dcrc)
                          else
                            frames
                              ({ name; pos = body_at; len = body_len } :: acc)
                              declared (body_at + body_len)
                        end
                end
              end
            end
          in
          match frames [] declared (8 + manifest_len) with
          | Error e -> Error e
          | Ok sections -> Ok (manifest, sections))
  end

let find sections name = List.find_opt (fun s -> String.equal s.name name) sections
