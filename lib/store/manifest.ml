module Json = Core.Json

type t = { next_id : int; segments : Segment.meta list }

let empty = { next_id = 0; segments = [] }
let file = "MANIFEST.json"
let path ~dir = Filename.concat dir file
let exists ~dir = Sys.file_exists (path ~dir)

let sort_segments = List.sort (fun (a : Segment.meta) b -> compare a.Segment.id b.id)

let add t meta =
  {
    next_id = max t.next_id (meta.Segment.id + 1);
    segments = sort_segments (meta :: t.segments);
  }

let remove t ~ids =
  { t with segments = List.filter (fun (m : Segment.meta) -> not (List.mem m.Segment.id ids)) t.segments }

let total_records t =
  List.fold_left (fun acc (m : Segment.meta) -> acc + m.Segment.records) 0 t.segments

let total_bytes t =
  List.fold_left (fun acc (m : Segment.meta) -> acc + m.Segment.bytes) 0 t.segments

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("next_id", Json.Int t.next_id);
      ("segments", Json.List (List.map Segment.meta_to_json t.segments));
    ]

let save t ~dir =
  let tmp = path ~dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~indent:true (to_json t) ^ "\n"));
  Sys.rename tmp (path ~dir)

let of_json j =
  let ( let* ) = Result.bind in
  let* next_id = Json.int_field "next_id" j in
  let* items = Json.list_field "segments" j in
  let* segments = Json.map_result Segment.meta_of_json items in
  Ok { next_id; segments = sort_segments segments }

let load ~dir =
  let p = path ~dir in
  match open_in_bin p with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let data = really_input_string ic (in_channel_length ic) in
          match Json.of_string data with
          | Error e -> Error (Printf.sprintf "%s: %s" p e)
          | Ok j -> (
              match of_json j with
              | Error e -> Error (Printf.sprintf "%s: %s" p e)
              | Ok t -> Ok t))

let rebuild ~dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          match acc with
          | Error _ as e -> e
          | Ok t ->
              if Filename.check_suffix entry ".pts" then
                match Segment.read_meta ~path:(Filename.concat dir entry) with
                | Ok meta -> Ok (add t meta)
                | Error e -> Error e
              else Ok t)
        (Ok empty) entries
