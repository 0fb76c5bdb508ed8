module Json = Core.Json
module Sim_time = Simnet.Sim_time
module B = Trace.Binary_format

type meta = {
  id : int;
  file : string;
  min_ts_ns : int;
  max_ts_ns : int;
  hosts : string list;
  records : int;
  bytes : int;
  raw_records : int;
  raw_bytes : int;
  policy : string;
}

let magic = "PTS1"
let filename id = Printf.sprintf "seg-%06d.pts" id

let overlaps meta ~since_ns ~until_ns =
  (match until_ns with Some u -> meta.min_ts_ns <= u | None -> true)
  && match since_ns with Some s -> meta.max_ts_ns >= s | None -> true

let meta_to_json m =
  Json.Obj
    [
      ("id", Json.Int m.id);
      ("file", Json.String m.file);
      ("min_ts_ns", Json.Int m.min_ts_ns);
      ("max_ts_ns", Json.Int m.max_ts_ns);
      ("hosts", Json.List (List.map (fun h -> Json.String h) m.hosts));
      ("records", Json.Int m.records);
      ("bytes", Json.Int m.bytes);
      ("raw_records", Json.Int m.raw_records);
      ("raw_bytes", Json.Int m.raw_bytes);
      ("policy", Json.String m.policy);
    ]

let ( let* ) = Result.bind

let meta_of_json j =
  Result.map_error (fun e -> "segment meta: " ^ e)
    (let* id = Json.int_field "id" j in
     let* file = Json.string_field "file" j in
     let* min_ts_ns = Json.int_field "min_ts_ns" j in
     let* max_ts_ns = Json.int_field "max_ts_ns" j in
     let* hosts = Json.list_field "hosts" j in
     let* hosts = Json.map_result (Json.as_string "hosts") hosts in
     let* records = Json.int_field "records" j in
     let* bytes = Json.int_field "bytes" j in
     let* raw_records = Json.int_field "raw_records" j in
     let* raw_bytes = Json.int_field "raw_bytes" j in
     let* policy = Json.string_field "policy" j in
     Ok { id; file; min_ts_ns; max_ts_ns; hosts; records; bytes; raw_records; raw_bytes; policy })

let time_bounds arenas =
  let lo = ref max_int and hi = ref min_int in
  List.iter
    (fun arena ->
      match Trace.Arena.time_bounds arena with
      | None -> ()
      | Some (a, b) ->
          let a = Sim_time.to_ns a and b = Sim_time.to_ns b in
          if a < !lo then lo := a;
          if b > !hi then hi := b)
    arenas;
  (!lo, !hi)

let encode_native ~id ~policy ?raw_records ?raw_bytes arenas =
  let records = Trace.Arena.total arenas in
  if records = 0 then invalid_arg "Segment.encode: empty collection";
  let payload = Trace.Binary_format.encode_native arenas in
  let raw_records = Option.value ~default:records raw_records in
  let raw_bytes = Option.value ~default:(String.length payload) raw_bytes in
  let min_ts_ns, max_ts_ns = time_bounds arenas in
  let meta =
    {
      id;
      file = filename id;
      min_ts_ns;
      max_ts_ns;
      hosts = List.map Trace.Arena.hostname arenas |> List.sort_uniq String.compare;
      records;
      bytes = String.length payload;
      raw_records;
      raw_bytes;
      policy;
    }
  in
  let header = Json.to_string (meta_to_json meta) in
  let w = B.w_create (String.length payload + String.length header + 8) in
  B.w_raw w magic;
  B.w_u32be w (String.length header);
  B.w_raw w header;
  B.w_raw w payload;
  (meta, B.w_contents w)

let write ~dir meta data =
  let oc = open_out_bin (Filename.concat dir meta.file) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let write_native ~dir ~id ~policy ?raw_records ?raw_bytes arenas =
  let meta, data = encode_native ~id ~policy ?raw_records ?raw_bytes arenas in
  write ~dir meta data;
  meta

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* [pos]/[len] delimit the segment inside [data] (a whole file: pos 0;
   an embedded section of a bundle: the section's body). Offsets in
   errors are absolute within [data], so they are container-relative.
   On success, returns the meta plus the payload's [pos, len) region. *)
let parse_header_at data ~pos ~len ~what =
  if pos < 0 || len < 0 || pos + len > String.length data then
    Error (Printf.sprintf "%s: segment region [%d, %d) exceeds input" what pos (pos + len))
  else begin
    let r = B.reader data ~pos ~len in
    if len < 8 || not (String.equal (B.get_bytes r 4) magic) then
      Error (Printf.sprintf "%s: not a PTS1 segment at offset %d" what pos)
    else
      match Json.of_string (B.get_bytes r (B.get_u32be r)) with
      | exception B.End_of_input ->
          Error (Printf.sprintf "%s: truncated segment header at offset %d" what (pos + 4))
      | Error e -> Error (Printf.sprintf "%s: bad segment header at offset %d: %s" what (pos + 8) e)
      | Ok j -> (
          match meta_of_json j with
          | Error e -> Error (Printf.sprintf "%s: at offset %d: %s" what (pos + 8) e)
          | Ok meta -> Ok (meta, r.B.pos, r.B.limit - r.B.pos))
  end

let parse_header data ~path =
  Result.map
    (fun (meta, payload_at, _) -> (meta, payload_at))
    (parse_header_at data ~pos:0 ~len:(String.length data) ~what:path)

let read_meta ~path =
  match read_file path with
  | Error e -> Error e
  | Ok data -> Result.map fst (parse_header data ~path)

let read_embedded_native ~data ~pos ~len ~what meta =
  match parse_header_at data ~pos ~len ~what with
  | Error e -> Error e
  | Ok (header_meta, payload_at, payload_len) ->
      if header_meta.id <> meta.id || header_meta.records <> meta.records then
        Error
          (Printf.sprintf
             "%s: header (id %d, %d records) disagrees with manifest (id %d, %d records)" what
             header_meta.id header_meta.records meta.id meta.records)
      else begin
        match Trace.Binary_format.decode_native_region data ~pos:payload_at ~len:payload_len with
        | Error e -> Error (Printf.sprintf "%s: %s" what e)
        | Ok arenas ->
            let n = Trace.Arena.total arenas in
            if n <> meta.records then
              Error
                (Printf.sprintf "%s: payload holds %d records, header declares %d" what n
                   meta.records)
            else Ok arenas
      end

let read_native ~dir meta =
  let path = Filename.concat dir meta.file in
  match read_file path with
  | Error e -> Error e
  | Ok data -> read_embedded_native ~data ~pos:0 ~len:(String.length data) ~what:path meta
