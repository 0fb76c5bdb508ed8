module Arena = Trace.Arena
module Json = Core.Json

type t = {
  display : string;
  data : string;
  manifest : Json.t;
  sections : Container.section list;
  store_manifest : Store.Manifest.t;
  mutable rows : (string * Arena.t) list option;
  mutable decoded_paths : Codec.decoded option;
  mutable profiles : Core.Analysis.profile list option;
}

let ( let* ) = Result.bind

let section_json t section =
  match Json.of_string (String.sub t.data section.Container.pos section.Container.len) with
  | Ok j -> Ok j
  | Error e ->
      Error
        (Printf.sprintf "%s: bad %S section at offset %d: %s" t.display section.Container.name
           section.Container.pos e)

(* A JSON section decoded with [of_json]; errors name its offset. *)
let section_value t section of_json =
  let* j = section_json t section in
  Result.map_error
    (fun e ->
      Printf.sprintf "%s: %S section at offset %d: %s" t.display section.Container.name
        section.Container.pos e)
    (of_json j)

let require t name =
  match Container.find t.sections name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: missing bundle section %S" t.display name)

let of_string ?(display = "<bundle>") data =
  let* manifest, sections = Container.parse ~what:display data in
  let t0 =
    {
      display;
      data;
      manifest;
      sections;
      store_manifest = Store.Manifest.empty;
      rows = None;
      decoded_paths = None;
      profiles = None;
    }
  in
  let* sm_section = require t0 "store/manifest" in
  let* store_manifest = section_value t0 sm_section Store.Manifest.of_json in
  Ok { t0 with store_manifest }

let open_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> of_string ~display:path data
  | exception Sys_error msg -> Error msg

let display t = t.display
let sections t = t.sections
let store_manifest t = t.store_manifest
let summary_json t = Json.member "summary" t.manifest

let config t =
  match Container.find t.sections "config" with
  | None -> Ok None
  | Some s -> Result.map (fun j -> Some j) (section_json t s)

let read_segment_native t (meta : Store.Segment.meta) =
  let name = Printf.sprintf "segments/%06d" meta.Store.Segment.id in
  let* s = require t name in
  Store.Segment.read_embedded_native ~data:t.data ~pos:s.Container.pos ~len:s.Container.len
    ~what:(Printf.sprintf "%s section %S" t.display name)
    meta

(* The canonical record order every back-link indexes into: segments
   decoded in manifest order and merged by {!Store.Query.merge_native} —
   the order the packer resolved against, and the one a store query
   returns, so coordinates survive store compaction (which preserves
   records and query answers). *)
let rows t =
  match t.rows with
  | Some r -> Ok r
  | None ->
      let* decoded =
        Json.map_result (read_segment_native t) t.store_manifest.Store.Manifest.segments
      in
      let r = List.map (fun a -> (Arena.hostname a, a)) (Store.Query.merge_native decoded) in
      t.rows <- Some r;
      Ok r

let query ?telemetry ?jobs t predicate =
  Store.Query.run_native_with ?telemetry ?jobs ~read:(read_segment_native t)
    t.store_manifest predicate

let paths t =
  match t.decoded_paths with
  | Some d -> Ok d
  | None ->
      let* s = require t "paths" in
      let* d =
        Result.map_error
          (fun e -> Printf.sprintf "%s: paths section: %s" t.display e)
          (Codec.decode t.data ~pos:s.Container.pos ~len:s.Container.len)
      in
      t.decoded_paths <- Some d;
      Ok d

let profiles t =
  match t.profiles with
  | Some p -> Ok p
  | None ->
      let* s = require t "patterns" in
      let* p = section_value t s Core.Analysis.profiles_of_json in
      t.profiles <- Some p;
      Ok p

let telemetry t =
  match Container.find t.sections "telemetry" with
  | None -> Ok None
  | Some s -> Result.map Option.some (section_value t s Telemetry.Export.of_json)

let resolve t ~link_hosts source =
  let host = Core.Cag.source_host source and index = Core.Cag.source_row source in
  if host >= Array.length link_hosts then
    Error (Printf.sprintf "%s: back-link host index %d out of range" t.display host)
  else begin
    let hostname = link_hosts.(host) in
    let* rows = rows t in
    match List.assoc_opt hostname rows with
    | None -> Error (Printf.sprintf "%s: back-link names unknown host %S" t.display hostname)
    | Some arena ->
        if index >= Arena.length arena then
          Error
            (Printf.sprintf "%s: back-link record index %d out of range for host %S (%d records)"
               t.display index hostname (Arena.length arena))
        else Ok (hostname, index, Arena.get arena index)
  end

let resolve_links t ~link_hosts v = Json.map_result (resolve t ~link_hosts) (Core.Cag.sources v)
