(* Tests for lib/bundle: the PTZ1 single-file container, the paths codec,
   back-link invariants, deterministic packing, corruption handling with
   named offsets, and diff-vs-diagnose culprit agreement — the acceptance
   criteria of the bundle subsystem. *)

module H = Test_helpers.Helpers
module S = Tiersim.Scenario
module Faults = Tiersim.Faults
module Activity = Trace.Activity
module Log = Trace.Log
module Arena = Trace.Arena
module Correlator = Core.Correlator
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Analysis = Core.Analysis
module Cag = Core.Cag
module Json = Core.Json

let temp_dir () =
  let dir = Filename.temp_file "pt-bundle" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One memoised mid-size three-tier run shared by the tests. *)
let outcome = lazy (S.run { S.default with S.clients = 120; time_scale = 0.05; seed = 11 })

let fault_outcome =
  let cache = Hashtbl.create 4 in
  fun (label, fault) ->
    match Hashtbl.find_opt cache label with
    | Some o -> o
    | None ->
        let o =
          S.run
            { S.default with S.clients = 120; time_scale = 0.05; seed = 11; faults = [ fault ] }
        in
        Hashtbl.replace cache label o;
        o

let config () =
  let o = Lazy.force outcome in
  Correlator.config ~transform:o.S.transform ()

let pack_logs ?roll_records ~path logs =
  match
    Bundle.Pack.pack ?roll_records ~config:(config ())
      ~source:(H.run_source (config ()) (Arena.of_collection logs))
      ~path ()
  with
  | Ok summary -> summary
  | Error e -> Alcotest.failf "pack: %s" e

let reader path =
  match Bundle.Reader.open_file path with
  | Ok r -> r
  | Error e -> Alcotest.failf "open %s: %s" path e

let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

(* The bundle's canonical records: every embedded row, in the order
   back-links index. *)
let canonical r =
  Arena.to_collection (fst (ok "canonical rows" (Bundle.Reader.query r Store.Query.all)))

let collection_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         String.equal (Log.hostname x) (Log.hostname y)
         && Log.length x = Log.length y
         && List.for_all2 Activity.equal (Log.to_list x) (Log.to_list y))
       a b

(* The control bundle most tests share, packed once. *)
let control =
  lazy
    (let dir = temp_dir () in
     at_exit (fun () -> rm_rf dir);
     let path = Filename.concat dir "control.ptz" in
     let summary = pack_logs ~path (Lazy.force outcome).S.logs in
     (path, summary))

(* ---- container framing ---- *)

(* A written bundle, read back. *)
let write_sections sections =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "c.ptz" in
  let bytes = Bundle.Container.write ~path ~manifest_extra:[] sections in
  let data = read_file path in
  Alcotest.(check int) "write returns the file size" (String.length data) bytes;
  Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
  data

let test_container_roundtrip () =
  (* the CRC-32 check value, whole and as a substring off any alignment *)
  Alcotest.(check int) "crc32 check value" 0xcbf43926 (Bundle.Container.crc32 "123456789");
  Alcotest.(check int)
    "crc32 of a substring" 0xcbf43926
    (Bundle.Container.crc32 ~pos:3 ~len:9 "xyz123456789abc");
  let sections =
    [ ("config", "{}"); ("segments/000000", String.make 1000 'x'); ("paths", "payload") ]
  in
  let data = write_sections sections in
  let _, parsed = ok "parse" (Bundle.Container.parse ~what:"t" data) in
  Alcotest.(check int) "section count" 3 (List.length parsed);
  List.iter
    (fun (name, body) ->
      match Bundle.Container.find parsed name with
      | None -> Alcotest.failf "section %s missing" name
      | Some s ->
          Alcotest.(check string)
            name body
            (String.sub data s.Bundle.Container.pos s.Bundle.Container.len))
    sections

let test_container_deterministic () =
  let sections = [ ("b", "bbb"); ("a", "aaa") ] in
  let d1 = write_sections sections in
  let d2 = write_sections sections in
  Alcotest.(check string) "write is pure" d1 d2

(* ---- pack determinism ---- *)

let test_repack_identical () =
  with_dir @@ fun dir ->
  let logs = (Lazy.force outcome).S.logs in
  let p1 = Filename.concat dir "one.ptz" in
  let p2 = Filename.concat dir "two.ptz" in
  let s1 = pack_logs ~path:p1 logs in
  let s2 = pack_logs ~path:p2 logs in
  Alcotest.(check int) "same size" s1.Bundle.Pack.bytes s2.Bundle.Pack.bytes;
  Alcotest.(check bool) "byte-identical bundles" true (String.equal (read_file p1) (read_file p2))

(* ---- read round-trip fidelity ---- *)

let test_roundtrip_collection () =
  let path, summary = Lazy.force control in
  let logs = (Lazy.force outcome).S.logs in
  let r = reader path in
  let got = canonical r in
  Alcotest.(check int) "summary records" (Log.total logs) summary.Bundle.Pack.records;
  Alcotest.(check bool)
    "embedded store reproduces the records" true
    (collection_equal
       (Arena.to_collection (Store.Query.merge_native [ Arena.of_collection logs ]))
       got)

let test_roundtrip_paths_and_profiles () =
  let path, _ = Lazy.force control in
  let r = reader path in
  let decoded = ok "paths" (Bundle.Reader.paths r) in
  let cags = List.map (fun (p : Bundle.Codec.path) -> p.Bundle.Codec.cag) decoded.Bundle.Codec.paths in
  (* The decoded graphs must regenerate the packed profiles byte for byte:
     same patterns, same counts, same §5.4 component breakdowns. *)
  let packed = ok "profiles" (Bundle.Reader.profiles r) in
  let recomputed = Aggregate.profiles_of_cags cags in
  Alcotest.(check string)
    "profiles byte-identical after decode"
    (Json.to_string (Analysis.profiles_to_json packed))
    (Json.to_string (Analysis.profiles_to_json recomputed));
  (* And they must match a fresh correlation of the same records. *)
  let o = Lazy.force outcome in
  let result = Core.Shard.correlate_arena (config ()) (Arena.of_collection o.S.logs) in
  let fresh = Aggregate.profiles_of_cags result.Correlator.cags in
  Alcotest.(check string)
    "profiles match a fresh correlation"
    (Json.to_string (Analysis.profiles_to_json fresh))
    (Json.to_string (Analysis.profiles_to_json packed));
  let by_id =
    List.fold_left
      (fun m (c : Cag.t) -> (c.Cag.cag_id, c) :: m)
      [] result.Correlator.cags
  in
  List.iter
    (fun (c : Cag.t) ->
      match List.assoc_opt c.Cag.cag_id by_id with
      | None -> Alcotest.failf "decoded path %d not in fresh correlation" c.Cag.cag_id
      | Some fresh ->
          Alcotest.(check string)
            (Printf.sprintf "signature of %d" c.Cag.cag_id)
            (Pattern.signature_of fresh) (Pattern.signature_of c);
          (* Each decoded vertex keeps the position its original had, and
             its parents sit before it. *)
          Alcotest.(check int) (Printf.sprintf "size of %d" c.Cag.cag_id) (Cag.size fresh)
            (Cag.size c);
          List.iteri
            (fun i ((f : Cag.vertex), (d : Cag.vertex)) ->
              if d.Cag.pos <> i || not (Activity.equal d.Cag.activity f.Cag.activity) then
                Alcotest.failf "path %d: vertex %d moved to %d" c.Cag.cag_id i d.Cag.pos;
              List.iter
                (fun (_, (p : Cag.vertex)) ->
                  if p.Cag.pos >= d.Cag.pos then
                    Alcotest.failf "path %d: vertex %d has parent %d" c.Cag.cag_id d.Cag.pos
                      p.Cag.pos)
                d.Cag.parents)
            (List.combine (Cag.vertices fresh) (Cag.vertices c)))
    cags

(* ---- back-link invariants ---- *)

let test_every_vertex_resolves () =
  let path, summary = Lazy.force control in
  Alcotest.(check int) "no unresolved links" 0 summary.Bundle.Pack.unresolved_links;
  let r = reader path in
  let decoded = ok "paths" (Bundle.Reader.paths r) in
  let hosts = decoded.Bundle.Codec.link_hosts in
  List.iter
    (fun (p : Bundle.Codec.path) ->
      List.iter
        (fun (v : Cag.vertex) ->
          if Cag.sources v = [] then
            Alcotest.failf "path %d vertex %d has no backing records"
              p.Bundle.Codec.cag.Cag.cag_id v.Cag.pos;
          let resolved = ok "resolve" (Bundle.Reader.resolve_links r ~link_hosts:hosts v) in
          (* The activity that stamped the vertex (the creating record, or
             the completing chunk of a merged receive) is always among the
             backing records. *)
          let vertex_ns = Simnet.Sim_time.to_ns v.Cag.activity.Activity.timestamp in
          if
            not
              (List.exists
                 (fun (_, _, a) -> Simnet.Sim_time.to_ns a.Activity.timestamp = vertex_ns)
                 resolved)
          then
            Alcotest.failf "path %d vertex %d: no backing record carries its timestamp"
              p.Bundle.Codec.cag.Cag.cag_id v.Cag.pos)
        (Cag.vertices p.Bundle.Codec.cag))
    decoded.Bundle.Codec.paths

(* A decoded vertex's back-links as (host index, record index) pairs. *)
let links_of (v : Cag.vertex) =
  List.map (fun s -> (Cag.source_host s, Cag.source_row s)) (Cag.sources v)

(* The oracle for back-links: the search-based resolver packing used
   before vertices carried their raw rows, rebuilt on an index. One queue
   of (host, row) coordinates per exact record key, popped in (host, row)
   order, exact kind first, then the raw kind of a transform-rewritten
   entry record. *)
module Reference_resolver = struct
  let key_of (a : Activity.t) kind =
    let c = a.Activity.context and f = a.Activity.message.flow in
    ( Simnet.Sim_time.to_ns a.timestamp,
      (c.Activity.host, c.program, c.pid, c.tid),
      ( Simnet.Address.ip_to_int f.src.ip,
        f.src.port,
        Simnet.Address.ip_to_int f.dst.ip,
        f.dst.port ),
      a.message.size,
      kind )

  let create collection =
    let index = Hashtbl.create 64 in
    List.iteri
      (fun hi log ->
        List.iteri
          (fun ri (a : Activity.t) ->
            let key = key_of a a.Activity.kind in
            let q =
              match Hashtbl.find_opt index key with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Hashtbl.replace index key q;
                  q
            in
            Queue.push (hi, ri) q)
          (Log.to_list log))
      collection;
    index

  let resolve index (a : Activity.t) =
    let take kind = Option.bind (Hashtbl.find_opt index (key_of a kind)) Queue.take_opt in
    match take a.Activity.kind with
    | Some link -> Some link
    | None -> (
        match a.Activity.kind with
        | Activity.Begin -> take Activity.Receive
        | Activity.End_ -> take Activity.Send
        | Activity.Send | Activity.Receive -> None)
end

(* A packed bundle with its canonical records, one array per link host. *)
let packed_rows ~config source =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "p.ptz" in
  let summary =
    ok "pack" (Bundle.Pack.pack ~roll_records:4096 ~config ~source ~path ())
  in
  let r = reader path in
  let decoded = ok "paths" (Bundle.Reader.paths r) in
  let canonical = canonical r in
  let by_host =
    Array.map
      (fun h ->
        match List.find_opt (fun l -> String.equal (Log.hostname l) h) canonical with
        | Some l -> Array.of_list (Log.to_list l)
        | None -> [||] (* a host with no rows: queries leave it out *))
      decoded.Bundle.Codec.link_hosts
  in
  (summary, decoded, canonical, by_host)

(* The golden inputs: RUBiS Default (seed 42) as a store directory and as
   logs, and the mesh control preset. No row of these shares (timestamp,
   context, flow, size, kind) with another row of its host, so exact
   provenance and the resolver's first-match search must agree. *)
let rubis_golden () =
  let o =
    S.run
      {
        S.default with
        S.mix = Tiersim.Workload.Default;
        clients = 100;
        time_scale = 0.05;
        seed = 42;
      }
  in
  (Correlator.config ~transform:o.S.transform (), o.S.logs)

let mesh_control () =
  let spec = Option.get (Mesh.Presets.spec_of ~seed:7 "control") in
  let spec = { spec with Mesh.Spec.clients = 16; requests_per_client = 20 } in
  let b = Mesh.Runtime.build spec in
  Simnet.Engine.run b.Mesh.Runtime.engine;
  let transform = Core.Transform.config ~entry_points:b.Mesh.Runtime.entries () in
  ( Correlator.config ~transform ~window:(Simnet.Sim_time.ms 5) (),
    Trace.Probe.logs b.Mesh.Runtime.probe )

let check_links_match_reference (config, source) =
  let summary, decoded, canonical, by_host = packed_rows ~config source in
  Alcotest.(check int) "no unresolved links" 0 summary.Bundle.Pack.unresolved_links;
  let index = Reference_resolver.create canonical in
  let host_index h =
    let rec find i = function
      | l :: rest -> if String.equal (Log.hostname l) h then i else find (i + 1) rest
      | [] -> Alcotest.failf "no log for %s" h
    in
    find 0 canonical
  in
  let count = ref 0 in
  List.iter
    (fun (p : Bundle.Codec.path) ->
      List.iter
        (fun v ->
          List.iter
            (fun (h, r) ->
             incr count;
             let raw = by_host.(h).(r) in
             let transformed =
               match H.transform_record config.Correlator.transform raw with
               | Some a -> a
               | None ->
                   Alcotest.failf "linked row %s[%d] is filtered out" decoded.link_hosts.(h) r
             in
             Alcotest.(check (option (pair int int)))
               (Printf.sprintf "path %d link" p.Bundle.Codec.cag.Cag.cag_id)
               (Reference_resolver.resolve index transformed)
               (Some (host_index decoded.link_hosts.(h), r)))
            (links_of v))
        (Cag.vertices p.Bundle.Codec.cag))
    decoded.Bundle.Codec.paths;
  Alcotest.(check int) "every link checked" summary.Bundle.Pack.links !count

let with_rubis_store f =
  let config, logs = rubis_golden () in
  with_dir @@ fun dir ->
  let w = Store.Writer.create ~roll_records:4096 ~dir () in
  Store.Writer.ingest_native w (Arena.of_collection logs);
  ignore (Store.Writer.close w);
  f (config, `Store_dir dir)

let test_links_reference_rubis_store () = with_rubis_store check_links_match_reference

let test_links_reference_rubis_logs () =
  let config, logs = rubis_golden () in
  check_links_match_reference (config, H.run_source config (Arena.of_collection logs))

let test_links_reference_mesh () =
  let config, logs = mesh_control () in
  check_links_match_reference (config, H.run_source config (Arena.of_collection logs))

(* A [`Run] source embeds the store writer's own segments: every
   segment section is byte for byte the file a [Store.Writer] store of
   the same rows holds, and the embedded manifest is that store's. Mesh
   control at roll 1000 cuts a segment in which db1 has no row. *)
let test_arenas_segments_are_the_writers () =
  List.iter
    (fun (name, (config, logs)) ->
      List.iter
        (fun roll_records ->
          let what = Printf.sprintf "%s at roll %d" name roll_records in
          with_dir @@ fun store ->
          with_dir @@ fun out ->
          let w = Store.Writer.create ~roll_records ~dir:store () in
          Store.Writer.ingest_native w (Arena.of_collection logs);
          ignore (Store.Writer.close w);
          let path = Filename.concat out "b.ptz" in
          ignore
            (ok what
               (Bundle.Pack.pack ~roll_records ~config
                  ~source:(H.run_source config (Arena.of_collection logs))
                  ~path ()));
          let data = read_file path in
          let _, sections = ok "parse" (Bundle.Container.parse ~what:path data) in
          let section name =
            match Bundle.Container.find sections name with
            | Some s -> String.sub data s.Bundle.Container.pos s.Bundle.Container.len
            | None -> Alcotest.failf "%s: no %s section" what name
          in
          let manifest = ok "manifest" (Store.Manifest.load ~dir:store) in
          Alcotest.(check string)
            (what ^ ": manifest")
            (Json.to_string (Store.Manifest.to_json manifest))
            (Json.to_string
               (Store.Manifest.to_json (Bundle.Reader.store_manifest (reader path))));
          List.iter
            (fun (m : Store.Segment.meta) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: segment %d bytes" what m.Store.Segment.id)
                true
                (String.equal
                   (read_file (Filename.concat store m.Store.Segment.file))
                   (section (Printf.sprintf "segments/%06d" m.Store.Segment.id))))
            manifest.Store.Manifest.segments)
        [ 1000; 4096 ])
    [ ("RUBiS", rubis_golden ()); ("mesh control", mesh_control ()) ]

(* Logs drawn from tiny attribute pools, so identical rows are common;
   contexts name any of the hosts, so some records sit in another host's
   log. Flows run either way across the entry endpoint, so the transform
   rewrites some rows to BEGIN and END. *)
let gen_tiny_pools =
  let open QCheck.Gen in
  let hosts = [ "h0"; "h1"; "h2" ] in
  let activity =
    map
      (fun ((ts, ctx_host), (pid, kind), (port, size, inbound)) ->
        let flow =
          if inbound then H.flow "10.0.0.1" port "10.0.0.2" 80
          else H.flow "10.0.0.2" 80 "10.0.0.1" port
        in
        H.act ~kind ~ts ~ctx:(H.ctx ~host:ctx_host ~pid ()) ~flow ~size)
      (triple
         (pair (int_range 0 3) (oneofl hosts))
         (pair (int_range 1 2) (oneofl Activity.[ Send; Receive; Send; Receive; Begin; End_ ]))
         (triple (int_range 1 2) (int_range 1 2) bool))
  in
  map
    (fun per_host -> List.map2 (fun hostname acts -> Log.of_list ~hostname acts) hosts per_host)
    (flatten_l (List.map (fun _ -> list_size (int_range 0 25) activity) hosts))

let tiny_config =
  Correlator.config
    ~transform:
      (Core.Transform.config
         ~entry_points:[ Simnet.Address.endpoint (Simnet.Address.ip_of_string "10.0.0.2") 80 ]
         ())
    ()

(* Exact provenance on inputs full of identical rows: no raw row backs
   two sources, and every linked row is one its vertex stands for — same
   context and flow, the kind equal up to the entry rewrite, and one of a
   vertex's rows carries the vertex's timestamp. *)
let prop_tiny_pool_provenance =
  QCheck.Test.make ~name:"provenance on tiny pools" ~count:150 (QCheck.make gen_tiny_pools)
    (fun logs ->
      QCheck.assume (Log.total logs > 0);
      let source = H.run_source tiny_config (Arena.of_collection logs) in
      (* A draw where no flow reaches the entry makes no path, and pack
         refuses it (Transform.entry_unreached): no provenance to check. *)
      QCheck.assume (match source with `Run (_, cags, deformed) -> cags <> [] || deformed <> []);
      let summary, decoded, _, by_host = packed_rows ~config:tiny_config source in
      let seen = Hashtbl.create 64 in
      let kind_ok (v : Activity.kind) (raw : Activity.kind) =
        Activity.equal_kind v raw
        || (Activity.equal_kind v Activity.Begin && Activity.equal_kind raw Activity.Receive)
        || (Activity.equal_kind v Activity.End_ && Activity.equal_kind raw Activity.Send)
      in
      summary.Bundle.Pack.unresolved_links = 0
      && List.for_all
           (fun (p : Bundle.Codec.path) ->
             List.for_all
               (fun (v : Cag.vertex) ->
                 let a = v.Cag.activity and links = links_of v in
                 links <> []
                 && List.exists
                      (fun (h, r) ->
                        Simnet.Sim_time.equal by_host.(h).(r).Activity.timestamp a.timestamp)
                      links
                 && List.for_all
                      (fun (h, r) ->
                        let raw = by_host.(h).(r) in
                        let fresh = not (Hashtbl.mem seen (h, r)) in
                        Hashtbl.replace seen (h, r) ();
                        fresh
                        && Activity.equal_context raw.Activity.context a.Activity.context
                        && Simnet.Address.flow_equal raw.message.flow a.message.flow
                        && kind_ok a.kind raw.kind)
                      links)
               (Cag.vertices p.Bundle.Codec.cag))
           decoded.Bundle.Codec.paths)

let test_walk_resolves_every_hop () =
  let path, _ = Lazy.force control in
  let r = reader path in
  let profiles = ok "profiles" (Bundle.Reader.profiles r) in
  Alcotest.(check bool) "has patterns" true (profiles <> []);
  List.iter
    (fun (p : Analysis.profile) ->
      let view = ok "walk" (Bundle.Walk.view r ~pattern:p.Analysis.name ()) in
      Alcotest.(check string) "walk lands on the pattern" p.Analysis.name view.Bundle.Walk.pattern;
      Alcotest.(check bool) "has hops" true (view.Bundle.Walk.hops <> []);
      Alcotest.(check bool)
        "begin resolves" true
        (view.Bundle.Walk.begin_records <> []);
      let share_sum =
        List.fold_left (fun acc (h : Bundle.Walk.hop) -> acc +. h.Bundle.Walk.share) 0.0
          view.Bundle.Walk.hops
      in
      Alcotest.(check bool)
        "hop shares cover the end-to-end time" true
        (Float.abs (share_sum -. 1.0) < 1e-6);
      List.iter
        (fun (h : Bundle.Walk.hop) ->
          if h.Bundle.Walk.records = [] then
            Alcotest.failf "pattern %s: hop %s resolves to no records" p.Analysis.name
              (Core.Latency.component_label h.Bundle.Walk.comp))
        view.Bundle.Walk.hops)
    profiles

(* Back-links are coordinates into the canonical merged record order, so
   they must survive store compaction: pack a many-segment store, compact
   it to one segment, repack — identical paths and patterns sections. *)
let test_links_survive_compaction () =
  with_dir @@ fun store_dir ->
  with_dir @@ fun out_dir ->
  let logs = (Lazy.force outcome).S.logs in
  let writer = Store.Writer.create ~roll_records:1024 ~dir:store_dir () in
  Store.Writer.ingest_native writer (Arena.of_collection logs);
  let wstats = Store.Writer.close writer in
  Alcotest.(check bool) "multiple segments" true (wstats.Store.Writer.segments > 2);
  let pack_store path =
    match
      Bundle.Pack.pack ~config:(config ()) ~source:(`Store_dir store_dir) ~path ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "pack store: %s" e
  in
  let section path name =
    let data = read_file path in
    let _, sections = ok "parse" (Bundle.Container.parse ~what:path data) in
    match Bundle.Container.find sections name with
    | Some s -> String.sub data s.Bundle.Container.pos s.Bundle.Container.len
    | None -> Alcotest.failf "%s: no %s section" path name
  in
  let before = Filename.concat out_dir "before.ptz" in
  let after = Filename.concat out_dir "after.ptz" in
  let s1 = pack_store before in
  (match Store.Compact.run ~min_records:max_int ~dir:store_dir () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compact: %s" e);
  let s2 = pack_store after in
  Alcotest.(check bool) "compaction merged segments" true
    (s2.Bundle.Pack.segments < s1.Bundle.Pack.segments);
  Alcotest.(check string)
    "paths section identical across compaction" (section before "paths") (section after "paths");
  Alcotest.(check string)
    "patterns section identical across compaction" (section before "patterns")
    (section after "patterns")

(* ---- embedded query ---- *)

let test_query_matches_store () =
  with_dir @@ fun store_dir ->
  with_dir @@ fun out_dir ->
  let logs = (Lazy.force outcome).S.logs in
  let writer = Store.Writer.create ~roll_records:1024 ~dir:store_dir () in
  Store.Writer.ingest_native writer (Arena.of_collection logs);
  ignore (Store.Writer.close writer);
  let path = Filename.concat out_dir "b.ptz" in
  (match Bundle.Pack.pack ~config:(config ()) ~source:(`Store_dir store_dir) ~path () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pack: %s" e);
  let r = reader path in
  let all = Log.to_list (List.hd logs) in
  let mid = List.nth all (List.length all / 2) in
  let mid_ns = Simnet.Sim_time.to_ns mid.Activity.timestamp in
  let predicate = Store.Query.predicate ~since_ns:mid_ns () in
  let from_bundle, bstats = ok "bundle query" (Bundle.Reader.query r predicate) in
  let from_store, sstats = ok "store query" (Store.Query.run_native ~dir:store_dir predicate) in
  Alcotest.(check bool)
    "bundle query equals store query" true
    (collection_equal (Arena.to_collection from_store) (Arena.to_collection from_bundle));
  Alcotest.(check int)
    "same pruning" sstats.Store.Query.segments_scanned bstats.Store.Query.segments_scanned;
  Alcotest.(check bool)
    "pruning engaged" true
    (bstats.Store.Query.segments_scanned < bstats.Store.Query.segments_total)

(* ---- corruption: named offsets, no exceptions ---- *)

let expect_offset_error what = function
  | Ok _ -> Alcotest.failf "%s: corrupt bundle accepted" what
  | Error e ->
      let mentions_offset =
        let n = String.length e in
        let rec scan i =
          i + 6 <= n && (String.equal (String.sub e i 6) "offset" || scan (i + 1))
        in
        scan 0
      in
      if not mentions_offset then Alcotest.failf "%s: error does not name an offset: %s" what e

let test_truncated_bundle () =
  let path, _ = Lazy.force control in
  let data = read_file path in
  List.iter
    (fun len ->
      expect_offset_error
        (Printf.sprintf "truncated to %d" len)
        (Bundle.Reader.of_string (String.sub data 0 len)))
    [ 0; 3; 4; 7; 8; String.length data / 3; String.length data - 1 ]

let test_byte_flips_detected () =
  let path, _ = Lazy.force control in
  let data = read_file path in
  let _, sections = ok "parse" (Bundle.Container.parse ~what:path data) in
  (* A flip anywhere in any section body must be caught by the per-section
     checksum at open, naming the section and its offset. *)
  List.iter
    (fun (s : Bundle.Container.section) ->
      let at = s.Bundle.Container.pos + (s.Bundle.Container.len / 2) in
      let corrupted = Bytes.of_string data in
      Bytes.set corrupted at (Char.chr (Char.code (Bytes.get corrupted at) lxor 0xff));
      expect_offset_error
        (Printf.sprintf "flip in %s" s.Bundle.Container.name)
        (Bundle.Reader.of_string (Bytes.to_string corrupted)))
    sections;
  (* Bad magic. *)
  let corrupted = Bytes.of_string data in
  Bytes.set corrupted 0 'X';
  expect_offset_error "bad magic" (Bundle.Reader.of_string (Bytes.to_string corrupted))

let test_decode_region_offsets () =
  let logs = (Lazy.force outcome).S.logs in
  let _, seg = Store.Segment.encode_native ~id:0 ~policy:"none" (Trace.Arena.of_collection logs) in
  let _meta, payload_pos, payload_len =
    ok "header" (Store.Segment.parse_header_at seg ~pos:0 ~len:(String.length seg) ~what:"seg")
  in
  (* Decoding at the true offset succeeds... *)
  (match Trace.Binary_format.decode_native_region seg ~pos:payload_pos ~len:payload_len with
  | Ok c -> Alcotest.(check int) "records" (Log.total logs) (Arena.total c)
  | Error e -> Alcotest.failf "decode_native_region: %s" e);
  (* ...and every failure names an absolute offset inside the region. *)
  expect_offset_error "truncated region"
    (Result.map ignore
       (Trace.Binary_format.decode_native_region
          (String.sub seg 0 (payload_pos + (payload_len / 2)))
          ~pos:payload_pos
          ~len:(payload_len / 2)));
  expect_offset_error "bad region bounds"
    (Result.map ignore
       (Trace.Binary_format.decode_native_region seg ~pos:payload_pos
          ~len:(payload_len + 10)))

(* ---- the path codec on its own ---- *)

let decode_message msg = Bundle.Codec.decode msg ~pos:0 ~len:(String.length msg)
let encode ~link_hosts cags = (Bundle.Codec.encode ~link_hosts cags).Bundle.Codec.bytes
let cags_of (d : Bundle.Codec.decoded) = List.map (fun p -> p.Bundle.Codec.cag) d.Bundle.Codec.paths

(* A link host no vertex mentions must still land in the string table. *)
let test_unmentioned_link_host () =
  let msg = encode ~link_hosts:[| "web"; "ghost" |] [] in
  let d = ok "decode" (decode_message msg) in
  Alcotest.(check (array string)) "link hosts" [| "web"; "ghost" |] d.Bundle.Codec.link_hosts;
  Alcotest.(check int) "no paths" 0 (List.length d.Bundle.Codec.paths)

(* Decoded back-links are vertex sources again: a packed store bundle's
   paths section, decoded and re-encoded, is the same bytes with the
   same link counts; without link hosts the same paths carry no links. *)
let test_links_reencode_identical () =
  with_rubis_store @@ fun (config, source) ->
  with_dir @@ fun dir ->
  let path = Filename.concat dir "s.ptz" in
  let summary = ok "pack" (Bundle.Pack.pack ~config ~source ~path ()) in
  let data = read_file path in
  let _, sections = ok "parse" (Bundle.Container.parse ~what:path data) in
  let s = Option.get (Bundle.Container.find sections "paths") in
  let packed = String.sub data s.Bundle.Container.pos s.Bundle.Container.len in
  let decoded = ok "decode" (decode_message packed) in
  let again = Bundle.Codec.encode ~link_hosts:decoded.Bundle.Codec.link_hosts (cags_of decoded) in
  Alcotest.(check bool) "back-links were packed" true (summary.Bundle.Pack.links > 0);
  Alcotest.(check bool) "re-encoded bytes are identical" true (String.equal packed again.bytes);
  Alcotest.(check (pair int int))
    "link counts"
    (summary.Bundle.Pack.links, summary.Bundle.Pack.unresolved_links)
    (again.links, again.unresolved_links);
  let bare = Bundle.Codec.encode ~link_hosts:[||] (cags_of decoded) in
  Alcotest.(check (pair int int))
    "no link hosts, no links" (0, 0) (bare.links, bare.unresolved_links);
  List.iter
    (fun (p : Bundle.Codec.path) ->
      List.iter
        (fun v -> if Cag.sources v <> [] then Alcotest.fail "a vertex kept a source")
        (Cag.vertices p.Bundle.Codec.cag))
    (ok "decode bare" (decode_message bare.bytes)).Bundle.Codec.paths

(* End to end: logs cut so short that no path forms still pack into a
   bundle whose paths section reads back. *)
let test_pathless_bundle_reads () =
  let o = S.run { S.default with S.clients = 20; seed = 3 } in
  let cut =
    List.map
      (fun l ->
        Log.of_list ~hostname:(Log.hostname l) (List.filteri (fun i _ -> i < 3) (Log.to_list l)))
      o.S.logs
  in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "cut.ptz" in
  let config = Correlator.config ~transform:o.S.transform () in
  let summary =
    match
      Bundle.Pack.pack ~config ~source:(H.run_source config (Arena.of_collection cut)) ~path ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "pack: %s" e
  in
  let d = ok "paths" (Bundle.Reader.paths (reader path)) in
  Alcotest.(check int) "link hosts" (List.length summary.Bundle.Pack.hosts)
    (Array.length d.Bundle.Codec.link_hosts)

(* Every prefix and every byte flipped by 0x01, 0x80 and 0xff, of a PTP1
   message with back-links and of one without: the decoder returns an
   error naming an offset or CAGs that all validate, and never raises. *)
let test_codec_corpus () =
  let path, _ = Lazy.force control in
  let decoded = ok "paths" (Bundle.Reader.paths (reader path)) in
  let sample = List.filteri (fun i _ -> i < 6) decoded.Bundle.Codec.paths in
  let check_input what input =
    match decode_message input with
    | Error e ->
        if not (H.contains e "offset") then Alcotest.failf "%s: error names no offset: %s" what e
    | Ok d ->
        List.iter
          (fun (p : Bundle.Codec.path) ->
            match Cag.validate p.Bundle.Codec.cag with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: decoded an invalid CAG: %s" what e)
          d.Bundle.Codec.paths
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  List.iter
    (fun (label, link_hosts, cags) ->
      let msg = encode ~link_hosts cags in
      let n = String.length msg in
      for len = 0 to n - 1 do
        check_input (Printf.sprintf "%s: prefix %d/%d" label len n) (String.sub msg 0 len)
      done;
      List.iter
        (fun mask ->
          for i = 0 to n - 1 do
            let b = Bytes.of_string msg in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
            check_input (Printf.sprintf "%s: flip %#x at %d" label mask i) (Bytes.to_string b)
          done)
        [ 0x01; 0x80; 0xff ])
    [
      ("links", decoded.Bundle.Codec.link_hosts, cags_of { decoded with paths = sample });
      ("no links", [||], cags_of { decoded with paths = sample });
    ];
  (* A link row is below 2^Cag.row_bits: one past it is an offset-named
     error, not a source that names another host. *)
  let one_vertex ~row =
    let module B = Trace.Binary_format in
    let t = B.tables () in
    let ctx = B.table_context t (Trace.Intern.context_id (H.ctx ~host:"web" ())) in
    let flow = B.table_flow t (Trace.Intern.flow_id (H.flow "10.0.0.1" 9 "10.0.0.2" 80)) in
    let host = B.table_string t (Trace.Intern.string_id "web") in
    let w = B.w_create 64 in
    B.w_raw w Bundle.Codec.magic;
    B.w_tables w t;
    (* link hosts [web]; one path: id 7, unfinished, one vertex: a BEGIN
       at 1 ns (zigzag 2) of size 1 with no parent and one link *)
    List.iter (B.w_uvarint w)
      [ 1; host; 1; 7; 0; 1; Activity.kind_to_code Activity.Begin; 2; ctx; flow; 1; 0; 1; 0; row ];
    B.w_contents w
  in
  let last = (1 lsl Cag.row_bits) - 1 in
  (match decode_message (one_vertex ~row:last) with
  | Ok { paths = [ p ]; _ } ->
      Alcotest.(check (list int))
        "largest row round-trips" [ Cag.source ~host:0 ~row:last ]
        (Cag.sources (Cag.root p.Bundle.Codec.cag))
  | Ok _ -> Alcotest.fail "largest row: expected one path"
  | Error e -> Alcotest.failf "largest row: %s" e);
  match decode_message (one_vertex ~row:(last + 1)) with
  | Ok _ -> Alcotest.fail "a row of 2^40 decoded"
  | Error e ->
      if not (H.contains e "offset" && H.contains e "link row") then
        Alcotest.failf "row 2^40: %s" e

(* ---- diff vs diagnose ---- *)

let fault_cases =
  [ ("ejb-delay", Faults.ejb_delay); ("db-lock", Faults.database_lock);
    ("ejb-network", Faults.ejb_network) ]

(* The offline diagnose selection: most frequent observed pattern the
   baseline also saw, §5.4-compared; culprit is the top suspect. *)
let diagnose_culprit baseline_cags observed_cags =
  let base = Pattern.classify baseline_cags in
  let rec pick = function
    | [] -> None
    | (o : Pattern.t) :: rest -> (
        match List.find_opt (fun b -> String.equal b.Pattern.name o.Pattern.name) base with
        | Some b -> Some (b, o)
        | None -> pick rest)
  in
  match pick (Pattern.classify observed_cags) with
  | None -> None
  | Some (b, o) -> (
      let shares p = Analysis.shares (Aggregate.of_pattern p) in
      let report = Analysis.compare_profiles ~baseline:(shares b) ~observed:(shares o) in
      match report.Analysis.suspects with
      | s :: _ -> Some (Analysis.subject_label s.Analysis.subject)
      | [] -> None)

let test_diff_names_diagnose_culprit () =
  with_dir @@ fun dir ->
  let control_path, _ = Lazy.force control in
  let a = reader control_path in
  let baseline =
    Core.Shard.correlate_arena (config ()) (Arena.of_collection (Lazy.force outcome).S.logs)
  in
  List.iter
    (fun (label, fault) ->
      let fo = fault_outcome (label, fault) in
      let fpath = Filename.concat dir (label ^ ".ptz") in
      ignore (pack_logs ~path:fpath fo.S.logs);
      let b = reader fpath in
      let d = ok "diff" (Bundle.Diff.diff a b) in
      let observed = Core.Shard.correlate_arena (config ()) (Arena.of_collection fo.S.logs) in
      let expected = diagnose_culprit baseline.Correlator.cags observed.Correlator.cags in
      let got =
        Option.map
          (fun (s : Analysis.suspect) -> Analysis.subject_label s.Analysis.subject)
          d.Bundle.Diff.culprit
      in
      (match expected with
      | None -> Alcotest.failf "%s: diagnose found no culprit" label
      | Some _ -> ());
      Alcotest.(check (option string)) (label ^ " culprit agrees") expected got;
      Alcotest.(check bool)
        (label ^ " mix covers both runs")
        true
        (List.for_all
           (fun (m : Bundle.Diff.mix_delta) -> m.Bundle.Diff.count_a + m.Bundle.Diff.count_b > 0)
           d.Bundle.Diff.mix))
    fault_cases

let test_diff_self_is_quiet () =
  let path, _ = Lazy.force control in
  let a = reader path in
  let b = reader path in
  let d = ok "diff" (Bundle.Diff.diff a b) in
  Alcotest.(check int) "same totals" d.Bundle.Diff.total_a d.Bundle.Diff.total_b;
  List.iter
    (fun (m : Bundle.Diff.mix_delta) ->
      Alcotest.(check bool)
        "no frequency shift" true
        (Float.abs (m.Bundle.Diff.freq_b -. m.Bundle.Diff.freq_a) < 1e-12))
    d.Bundle.Diff.mix;
  List.iter
    (fun (r : Analysis.pair) ->
      List.iter
        (fun (x : Analysis.delta) ->
          Alcotest.(check bool)
            "no share change" true
            (Float.abs x.Analysis.change_pp < 1e-9))
        r.Analysis.report.Analysis.deltas)
    d.Bundle.Diff.reports

(* Mesh fan-out gives one route name many signatures (ROADMAP item 1):
   the mix must hold one row per signature and every report must pair a
   pattern with itself, as `bundle pack` of `simulate --topology control
   --seed 7` and `--topology hotspot_key --seed 7` at the mesh entry. *)
let test_diff_mesh_keys_by_signature () =
  with_dir @@ fun dir ->
  let pack preset =
    let b = Mesh.Runtime.build (Option.get (Mesh.Presets.spec_of ~seed:7 preset)) in
    Simnet.Engine.run b.Mesh.Runtime.engine;
    let transform = Core.Transform.config ~entry_points:b.Mesh.Runtime.entries () in
    let path = Filename.concat dir (preset ^ ".ptz") in
    let config = Correlator.config ~transform ~window:(Simnet.Sim_time.ms 10) () in
    let arenas = Arena.of_collection (Trace.Probe.logs b.Mesh.Runtime.probe) in
    ignore (ok "pack" (Bundle.Pack.pack ~config ~source:(H.run_source config arenas) ~path ()));
    reader path
  in
  let d = ok "diff" (Bundle.Diff.diff (pack "control") (pack "hotspot_key")) in
  let mix = d.Bundle.Diff.mix in
  let signatures = List.map (fun (m : Bundle.Diff.mix_delta) -> m.Bundle.Diff.signature) mix in
  Alcotest.(check int)
    "no repeated signature"
    (List.length signatures)
    (List.length (List.sort_uniq String.compare signatures));
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 mix in
  Alcotest.(check int) "count_a sums to total_a" d.Bundle.Diff.total_a
    (sum (fun m -> m.Bundle.Diff.count_a));
  Alcotest.(check int) "count_b sums to total_b" d.Bundle.Diff.total_b
    (sum (fun m -> m.Bundle.Diff.count_b));
  List.iter
    (fun { Analysis.baseline; observed; _ } ->
      Alcotest.(check string)
        "a report pairs one signature" baseline.Analysis.signature observed.Analysis.signature)
    d.Bundle.Diff.reports

(* ---- scenario + telemetry sections ---- *)

let test_config_and_telemetry_sections () =
  with_dir @@ fun dir ->
  let logs = (Lazy.force outcome).S.logs in
  let reg = Telemetry.Registry.default in
  let c = Telemetry.Registry.counter reg ~help:"test" "pt_test_total" in
  Telemetry.Registry.incr c;
  let scenario = Json.Obj [ ("clients", Json.Int 120) ] in
  let path = Filename.concat dir "t.ptz" in
  (match
     Bundle.Pack.pack ~embed_telemetry:true ~scenario ~config:(config ())
       ~source:(H.run_source (config ()) (Arena.of_collection logs))
       ~path ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pack: %s" e);
  let r = reader path in
  (match ok "config" (Bundle.Reader.config r) with
  | Some j -> (
      match Json.member "scenario" j with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "config section lost the scenario")
  | None -> Alcotest.fail "no config section");
  match ok "telemetry" (Bundle.Reader.telemetry r) with
  | Some families ->
      let found =
        List.exists
          (fun (f : Telemetry.Registry.family) ->
            String.equal f.Telemetry.Registry.name "pt_test_total")
          families
      in
      Alcotest.(check bool) "snapshot round-trips" true found
  | None -> Alcotest.fail "no telemetry section"

(* A run's pack holds that run's own paths. On mesh control the online
   run orders some concurrent sibling calls unlike the offline one, so a
   pack that correlated again would hold other paths. A bundle keeps
   only the count of unfinished paths, so both digests take the online
   run's. *)
let test_online_run_packs_its_paths () =
  with_dir @@ fun dir ->
  let config, logs = mesh_control () in
  let arenas = Store.Query.merge_native [ Arena.of_collection logs ] in
  let online =
    Core.Online.create ~telemetry:(Telemetry.Registry.create ()) ~config
      ~hosts:(List.map Arena.hostname arenas) ()
  in
  Core.Online.replay online arenas;
  Core.Online.finish online;
  let path = Filename.concat dir "online.ptz" in
  let source = `Run (arenas, Core.Online.paths online, Core.Online.deformed online) in
  ignore (ok "pack" (Bundle.Pack.pack ~config ~source ~path ()));
  let decoded = ok "paths" (Bundle.Reader.paths (reader path)) in
  let offline = Core.Shard.correlate_arena ~jobs:1 config arenas in
  let with_cags cags =
    Core.Shard.digest { offline with Correlator.cags; deformed = Core.Online.deformed online }
  in
  let online_digest = with_cags (Core.Online.paths online) in
  Alcotest.(check bool) "online paths differ from offline" false
    (String.equal online_digest (Core.Shard.digest offline));
  Alcotest.(check string) "packed paths = online paths" online_digest
    (with_cags (List.map (fun p -> p.Bundle.Codec.cag) decoded.Bundle.Codec.paths))

(* Back-links index the run's arenas, which must be in the order the
   embedded segments merge back into. *)
let test_non_canonical_run_refused () =
  with_dir @@ fun dir ->
  let config = config () in
  let (`Run (arenas, cags, unfinished)) =
    H.run_source config (Arena.of_collection (Lazy.force outcome).S.logs)
  in
  let reversed_rows =
    let a = List.hd arenas in
    let r = Arena.create_sid (Arena.host_sid a) in
    for i = Arena.length a - 1 downto 0 do
      Arena.append_row r a i
    done;
    r :: List.tl arenas
  in
  List.iter
    (fun (what, arenas) ->
      let path = Filename.concat dir "bad.ptz" in
      match Bundle.Pack.pack ~config ~source:(`Run (arenas, cags, unfinished)) ~path () with
      | Ok _ -> Alcotest.failf "%s: packed" what
      | Error _ -> Alcotest.(check bool) (what ^ ": nothing written") false (Sys.file_exists path))
    [
      ("hosts out of name order", List.rev arenas);
      ("rows out of time order", reversed_rows);
      ("a host with no rows", Arena.create ~host:"aa0" () :: arenas);
    ]

(* The snapshot is taken after the encode stage, so it holds this pack's
   own stage times. Packing a store directory correlates: one correlate
   observation more than before the pack. A run was correlated before
   its pack, which adds none. *)
let test_telemetry_holds_pack_stages () =
  with_dir @@ fun store ->
  with_dir @@ fun dir ->
  let correlate_count families =
    match
      Telemetry.Registry.find_sample families
        ~labels:[ ("stage", "correlate") ]
        "pt_bundle_pack_stage_seconds"
    with
    | Some (Telemetry.Registry.Hist { count; _ }) -> count
    | Some _ | None -> 0
  in
  let arenas = Arena.of_collection (Lazy.force outcome).S.logs in
  let w = Store.Writer.create ~dir:store () in
  Store.Writer.ingest_native w arenas;
  ignore (Store.Writer.close w);
  let packed source =
    let path = Filename.concat dir "t.ptz" in
    ignore
      (ok "pack" (Bundle.Pack.pack ~embed_telemetry:true ~config:(config ()) ~source ~path ()));
    match ok "telemetry" (Bundle.Reader.telemetry (reader path)) with
    | Some families -> correlate_count families
    | None -> Alcotest.fail "no telemetry section"
  in
  let before = correlate_count (Telemetry.Registry.snapshot Telemetry.Registry.default) in
  Alcotest.(check int) "the store pack's correlate stage" (before + 1) (packed (`Store_dir store));
  Alcotest.(check int) "none for a run's pack" (before + 1)
    (packed (H.run_source (config ()) arenas))

let () =
  Alcotest.run "bundle"
    [
      ( "container",
        [
          Alcotest.test_case "roundtrip" `Quick test_container_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_container_deterministic;
        ] );
      ( "pack",
        [
          Alcotest.test_case "repack is byte-identical" `Quick test_repack_identical;
          Alcotest.test_case "collection round-trip" `Quick test_roundtrip_collection;
          Alcotest.test_case "paths and profiles round-trip" `Quick
            test_roundtrip_paths_and_profiles;
          Alcotest.test_case "config and telemetry sections" `Quick
            test_config_and_telemetry_sections;
          Alcotest.test_case "telemetry holds the pack stages" `Quick
            test_telemetry_holds_pack_stages;
          Alcotest.test_case "online run packs its own paths" `Quick
            test_online_run_packs_its_paths;
          Alcotest.test_case "non-canonical run is refused" `Quick
            test_non_canonical_run_refused;
        ] );
      ( "back-links",
        [
          Alcotest.test_case "every vertex resolves" `Quick test_every_vertex_resolves;
          Alcotest.test_case "walk resolves every hop" `Quick test_walk_resolves_every_hop;
          Alcotest.test_case "links survive compaction" `Quick test_links_survive_compaction;
          Alcotest.test_case "RUBiS store links = reference" `Quick
            test_links_reference_rubis_store;
          Alcotest.test_case "RUBiS logs links = reference" `Quick test_links_reference_rubis_logs;
          Alcotest.test_case "mesh control links = reference" `Quick test_links_reference_mesh;
          Alcotest.test_case "arenas source embeds the writer's segments" `Quick
            test_arenas_segments_are_the_writers;
          QCheck_alcotest.to_alcotest prop_tiny_pool_provenance;
        ] );
      ( "query",
        [ Alcotest.test_case "matches the directory store" `Quick test_query_matches_store ] );
      ( "corruption",
        [
          Alcotest.test_case "truncation names offsets" `Quick test_truncated_bundle;
          Alcotest.test_case "byte flips are detected" `Quick test_byte_flips_detected;
          Alcotest.test_case "decode_region names offsets" `Quick test_decode_region_offsets;
        ] );
      ( "path codec",
        [
          Alcotest.test_case "unmentioned link host" `Quick test_unmentioned_link_host;
          Alcotest.test_case "re-encode is byte-identical" `Quick test_links_reencode_identical;
          Alcotest.test_case "pathless bundle reads back" `Quick test_pathless_bundle_reads;
          Alcotest.test_case "truncation and byte-flip corpus" `Quick test_codec_corpus;
        ] );
      ( "diff",
        [
          Alcotest.test_case "names the diagnose culprit" `Quick test_diff_names_diagnose_culprit;
          Alcotest.test_case "self-diff is quiet" `Quick test_diff_self_is_quiet;
          Alcotest.test_case "mesh rows and pairs by signature" `Quick
            test_diff_mesh_keys_by_signature;
        ] );
    ]
