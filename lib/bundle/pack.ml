module Address = Simnet.Address
module Arena = Trace.Arena
module Sim_time = Simnet.Sim_time
module Cag = Core.Cag
module Correlator = Core.Correlator
module Shard = Core.Shard
module Analysis = Core.Analysis
module Aggregate = Core.Aggregate
module Json = Core.Json
module R = Telemetry.Registry

type summary = {
  out_path : string;
  bytes : int;
  records : int;
  hosts : string list;
  segments : int;
  store_bytes : int;
  cags : int;
  deformed : int;
  patterns : int;
  links : int;
  unresolved_links : int;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>bundle %s: %d bytes@,%d records on %d hosts in %d segments (%d store bytes)@,\
     %d paths (%d deformed), %d patterns, %d back-links (%d unresolved)@]"
    s.out_path s.bytes s.records (List.length s.hosts) s.segments s.store_bytes s.cags s.deformed
    s.patterns s.links s.unresolved_links

let ( let* ) = Result.bind

let section_of_segment id = Printf.sprintf "segments/%06d" id

(* ---- config section ---- *)

let endpoint_str (e : Address.endpoint) = Format.asprintf "%a" Address.pp_endpoint e

let config_json ~(config : Correlator.config) ~scenario ~source_label =
  let t = config.Correlator.transform in
  Json.Obj
    [
      ("scenario", Option.value ~default:Json.Null scenario);
      ("source", Json.String source_label);
      ( "correlate",
        Json.Obj
          [
            ("window_ns", Json.Int (Sim_time.span_ns config.Correlator.window));
            ("skew_allowance_ns", Json.Int (Sim_time.span_ns config.skew_allowance));
            ( "entry_points",
              Json.List
                (List.map (fun e -> Json.String (endpoint_str e)) t.Core.Transform.entry_points) );
            ( "drop_programs",
              Json.List (List.map (fun p -> Json.String p) t.Core.Transform.drop_programs) );
            ("drop_ports", Json.List (List.map (fun p -> Json.Int p) t.Core.Transform.drop_ports));
          ] );
    ]

(* ---- sources ---- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok data
  | exception Sys_error msg -> Error msg

(* Embed a store directory verbatim: the exact segment bytes, so packing
   is lossless and deterministic with respect to the store's content. The
   same bytes are decoded for correlation, so back-links index exactly
   what the bundle carries. *)
let of_store_dir dir =
  let* manifest = Store.Manifest.load ~dir in
  let* segments =
    Json.map_result
      (fun (meta : Store.Segment.meta) ->
        let path = Filename.concat dir meta.Store.Segment.file in
        let* data = read_file path in
        let* arenas =
          Store.Segment.read_embedded_native ~data ~pos:0 ~len:(String.length data) ~what:path meta
        in
        Ok ((meta, data), arenas))
      manifest.Store.Manifest.segments
  in
  Ok (manifest, List.map fst segments, Store.Query.merge_native (List.map snd segments))

(* Synthetic segments: the store a no-reduction ingest of a run's arenas
   would write, cut by the store writer itself but held in memory. Their
   rows merge back into the same arenas only if those are canonical:
   sorted, named in order, none empty. *)
let of_run ?roll_records arenas =
  let rec by_name = function
    | a :: (b :: _ as rest) -> Arena.hostname a < Arena.hostname b && by_name rest
    | _ -> true
  in
  if by_name arenas && List.for_all (fun a -> Arena.length a > 0 && Arena.sorted a == a) arenas
  then
    Ok (Store.Writer.encode ?roll_records arenas)
  else Error "pack: run arenas are not in Store.Query.merge_native order"

(* ---- packing ---- *)

let summary_json ~summary ~min_ts_ns ~max_ts_ns =
  ( "summary",
    Json.Obj
      [
        ("records", Json.Int summary.records);
        ("hosts", Json.List (List.map (fun h -> Json.String h) summary.hosts));
        ("segments", Json.Int summary.segments);
        ("store_bytes", Json.Int summary.store_bytes);
        ("min_ts_ns", Json.Int min_ts_ns);
        ("max_ts_ns", Json.Int max_ts_ns);
        ("cags", Json.Int summary.cags);
        ("deformed", Json.Int summary.deformed);
        ("patterns", Json.Int summary.patterns);
        ("links", Json.Int summary.links);
        ("unresolved_links", Json.Int summary.unresolved_links);
      ] )

let stage name f =
  let family = "pt_bundle_pack_stage_seconds" and labels = [ ("stage", name) ] in
  ignore (R.histogram R.default ~help:"Bundle pack wall time per stage, seconds" ~labels family);
  R.time R.default ~labels family f

let pack ?(embed_telemetry = false) ?scenario ?jobs ?roll_records ~config ~source ~path () =
  let* source_label, manifest, segments, arenas, (cags, unfinished) =
    match source with
    | `Run (arenas, cags, unfinished) ->
        let* manifest, segments = stage "decode" (fun () -> of_run ?roll_records arenas) in
        Ok ("logs", manifest, segments, arenas, (cags, unfinished))
    | `Store_dir dir ->
        let* manifest, segments, arenas = stage "decode" (fun () -> of_store_dir dir) in
        let r = stage "correlate" (fun () -> Shard.correlate_arena ?jobs config arenas) in
        Ok ("store:" ^ Filename.basename dir, manifest, segments, arenas, (r.cags, r.deformed))
  in
  let records = Arena.total arenas in
  if records = 0 then Error "pack: store holds no records"
  else if cags = [] && unfinished = [] then
    Error ("pack: " ^ Core.Transform.entry_unreached config.Correlator.transform)
  else begin
    let hosts = List.map Arena.hostname arenas in
    let profiles = stage "profile" (fun () -> Aggregate.profiles_of_cags cags) in
    let json_body j = Json.to_string ~indent:true (Container.sort_json j) in
    (* Correlation ran on the very arenas the bundle embeds, so every
       vertex source already is a (host index, raw row) coordinate into
       them: the encoder copies them as back-links. *)
    let paths = stage "encode" (fun () -> Codec.encode ~link_hosts:(Array.of_list hosts) cags) in
    List.iter
      (fun (state, n) ->
        R.add
          (R.counter R.default ~help:"Bundle back-links by resolution outcome"
             ~labels:[ ("state", state) ] "pt_bundle_links_total")
          n)
      [ ("resolved", paths.Codec.links); ("unresolved", paths.Codec.unresolved_links) ];
    let sections =
      [
        ("config", json_body (config_json ~config ~scenario ~source_label));
        ("store/manifest", json_body (Store.Manifest.to_json manifest));
      ]
      @ List.map
          (fun ((meta : Store.Segment.meta), data) -> (section_of_segment meta.Store.Segment.id, data))
          segments
      @ [
          ("paths", paths.Codec.bytes);
          ("patterns", json_body (Analysis.profiles_to_json profiles));
        ]
      @
      (* after the encode stage: every stage time except [write]'s *)
      if embed_telemetry then
        [ ("telemetry", json_body (Telemetry.Export.to_json (R.snapshot R.default))) ]
      else []
    in
    let min_ts_ns, max_ts_ns =
      List.fold_left
        (fun (lo, hi) ((m : Store.Segment.meta), _) ->
          (min lo m.Store.Segment.min_ts_ns, max hi m.Store.Segment.max_ts_ns))
        (max_int, min_int) segments
    in
    let summary =
      {
        out_path = path;
        bytes = 0;
        records;
        hosts;
        segments = List.length segments;
        store_bytes = List.fold_left (fun acc (_, d) -> acc + String.length d) 0 segments;
        cags = List.length cags;
        deformed = List.length (List.filter Cag.is_deformed cags) + List.length unfinished;
        patterns = List.length profiles;
        links = paths.Codec.links;
        unresolved_links = paths.Codec.unresolved_links;
      }
    in
    stage "write" (fun () ->
        let bytes =
          Container.write ~path
            ~manifest_extra:[ summary_json ~summary ~min_ts_ns ~max_ts_ns ]
            sections
        in
        Ok { summary with bytes })
  end
