(* Pinned output digests. The ranker, the engine and every feed path
   (offline and online) are free to change how they work, never what they
   produce: each golden below was captured from the record-list
   implementation and must stay byte-identical.

   - [offline]: {!Core.Shard.digest} of the serial offline result, through
     both the record entry ([Correlator.correlate]) and the arena entry
     ([Correlator.correlate_arena]).
   - [online]: the same preimage over [Online.paths]/[Online.deformed],
     fed in merged time order one row at a time by [Online.replay].
   - [planner]: the epochs the sharded correlator cuts (see below).
   - [bundles]: the bytes [Bundle.Pack.pack] writes (see below).
   - [frames]: the PTC1 frames and PTA1 acks of the collection plane. *)

module H = Test_helpers.Helpers
module Arena = Trace.Arena
module Log = Trace.Log
module S = Tiersim.Scenario
module ST = Simnet.Sim_time
module Correlator = Core.Correlator
module Online = Core.Online
module Shard = Core.Shard
module Topo = Mesh.Random_spec

type case = {
  name : string;
  build : unit -> Correlator.config * Log.collection;
  offline : string;
  online : string;
}

let rubis ?(noise = S.No_noise) ?(skew = ST.span_zero) () =
  let o =
    S.run
      {
        S.default with
        S.mix = Tiersim.Workload.Default;
        clients = 100;
        time_scale = 0.05;
        noise;
        skew;
        seed = 42;
      }
  in
  (Correlator.config ~transform:o.S.transform (), o.S.logs)

let mesh_control ?(clients = 16) () =
  let spec = Option.get (Mesh.Presets.spec_of ~seed:7 "control") in
  let spec = { spec with Mesh.Spec.clients; requests_per_client = 20 } in
  let b = Mesh.Runtime.build spec in
  Simnet.Engine.run b.Mesh.Runtime.engine;
  let transform = Core.Transform.config ~entry_points:b.Mesh.Runtime.entries () in
  (Correlator.config ~transform ~window:(ST.ms 5) (), Trace.Probe.logs b.Mesh.Runtime.probe)

let cases =
  [
    {
      name = "RUBiS Default, seed 42";
      build = (fun () -> rubis ());
      offline = "a1423bb9c6b8cfdbe8b40f8718fb8678";
      online = "a1423bb9c6b8cfdbe8b40f8718fb8678";
    };
    {
      name = "RUBiS Default, paper noise, 200 ms skew";
      build =
        (fun () -> rubis ~noise:(S.Paper_noise { db_connections = 2 }) ~skew:(ST.ms 200) ());
      offline = "3ad460ca3fc04795630b5e521b438100";
      online = "3ad460ca3fc04795630b5e521b438100";
    };
    {
      name = "mesh control";
      build = (fun () -> mesh_control ());
      (* Online orders some concurrent sibling calls differently. *)
      offline = "5728b27bbe5eac4826587f04665772b6";
      online = "42dd195efb8432dfd37637fd3b88c0d1";
    };
  ]

let pin what expected actual = Alcotest.(check string) what expected actual

let paths_digest ~finished ~deformed =
  Digest.to_hex (Digest.string (Core.Hierarchy.render ~finished ~deformed))

let replay cfg logs =
  let online =
    Online.create ~telemetry:(Telemetry.Registry.create ()) ~config:cfg
      ~hosts:(List.map Log.hostname logs) ()
  in
  Online.replay online (Arena.of_collection logs);
  Online.finish online;
  online

let online_digest cfg logs =
  let online = replay cfg logs in
  paths_digest ~finished:(Online.paths online) ~deformed:(Online.deformed online)

let check_case c () =
  let cfg, logs = c.build () in
  let telemetry = Telemetry.Registry.create () in
  pin "offline (records)" c.offline (Shard.digest (Correlator.correlate ~telemetry cfg logs));
  pin "offline (arenas)" c.offline
    (Shard.digest (Correlator.correlate_arena ~telemetry cfg (Arena.of_collection logs)));
  pin "online (replay)" c.online (online_digest cfg logs)

(* The record entry is an adapter onto the arena core: on any topology
   the two must agree byte for byte. *)
let prop_record_equals_arena =
  QCheck.Test.make ~name:"random topologies: correlate = correlate_arena" ~count:12
    QCheck.(quad (int_range 2 5) (int_range 1 6) (int_range 0 200) (int_range 1 1000))
    (fun (tiers, clients, skew_ms, seed) ->
      let spec =
        {
          Topo.default_spec with
          Topo.tiers;
          clients;
          requests_per_client = 3;
          max_skew = ST.ms skew_ms;
          seed;
        }
      in
      let b = Topo.build spec in
      Simnet.Engine.run b.Topo.engine;
      let logs = Trace.Probe.logs b.Topo.probe in
      let transform = Core.Transform.config ~entry_points:[ b.Topo.entry ] () in
      let cfg = Correlator.config ~transform ~window:(ST.ms 5) () in
      let telemetry = Telemetry.Registry.create () in
      String.equal
        (Shard.digest (Correlator.correlate ~telemetry cfg logs))
        (Shard.digest (Correlator.correlate_arena ~telemetry cfg (Arena.of_collection logs))))

(* Planner goldens: the epochs {!Shard.plan} chooses — the ones the
   sharded run executes — at jobs 2 and 4, and the quiescent cut
   candidates behind them, captured from the record-list planner. The
   RUBiS runs are the low-concurrency ones [bench --figure parallel]
   shards (6 clients with --quick, 10 without); mesh control at 16
   clients never goes quiet, at one client it does. *)

let rubis_low clients =
  let o = S.run { S.default with S.clients } in
  (Correlator.config ~transform:o.S.transform (), o.S.logs)

let plan_cases =
  [
    ( "RUBiS Browse_only, 6 clients",
      (fun () -> rubis_low 6),
      81,
      [
        ( 2,
          [ (0, 189); (189, 377); (377, 556); (556, 744); (744, 925); (925, 1103); (1103, 1293);
            (1293, 1391) ] );
        ( 4,
          [ (0, 104); (104, 214); (214, 304); (304, 392); (392, 485); (485, 576); (576, 663);
            (663, 754); (754, 852); (852, 945); (945, 1035); (1035, 1133); (1133, 1236);
            (1236, 1336); (1336, 1391) ] );
      ] );
    ( "RUBiS Browse_only, 10 clients",
      (fun () -> rubis_low 10),
      136,
      [
        ( 2,
          [ (0, 338); (338, 661); (661, 986); (986, 1341); (1341, 1681); (1681, 2040);
            (2040, 2374); (2374, 2585) ] );
        ( 4,
          [ (0, 172); (172, 338); (338, 505); (505, 692); (692, 861); (861, 1039); (1039, 1215);
            (1215, 1394); (1394, 1561); (1561, 1739); (1739, 1904); (1904, 2079); (2079, 2242);
            (2242, 2426); (2426, 2585) ] );
      ] );
    ("mesh control", (fun () -> mesh_control ()), 0, [ (2, [ (0, 7556) ]); (4, [ (0, 7556) ]) ]);
    ( "mesh control, 1 client",
      (fun () -> mesh_control ~clients:1 ()),
      2,
      [ (2, [ (0, 72); (72, 338); (338, 488) ]); (4, [ (0, 72); (72, 338); (338, 488) ]) ] );
  ]

let check_plan (_, build, cuts, by_jobs) () =
  let cfg, logs = build () in
  let arenas = Arena.of_collection logs in
  List.iter
    (fun (jobs, ranges) ->
      let p = Shard.plan ~jobs cfg arenas in
      Alcotest.(check int) (Printf.sprintf "cut candidates at jobs %d" jobs) cuts
        (Shard.cut_candidates p);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "epoch ranges at jobs %d" jobs)
        ranges
        (Array.to_list (Shard.epoch_ranges p)))
    by_jobs

(* Bundle goldens: the MD5 of the PTZ1 bytes [Bundle.Pack.pack] writes
   (no telemetry section) for the RUBiS Default run above, from a store
   directory rolled every 4096 records and from the same records as an
   in-memory [`Run] source cut into synthetic segments of the same size.
   Captured before the packer moved onto arena rows; correlating at
   [~jobs:2] must produce the same bytes as at [~jobs:1]. *)

let temp_dir () =
  let dir = Filename.temp_file "pt-goldens" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pack_bytes ~jobs cfg source =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "b.ptz" in
      match Bundle.Pack.pack ~jobs ~roll_records:4096 ~config:cfg ~source ~path () with
      | Ok _ -> read_file path
      | Error e -> Alcotest.failf "pack: %s" e)

(* The store's basename is part of the packed config section. *)
let with_store logs f =
  let tmp = temp_dir () in
  let dir = Filename.concat tmp "store" in
  Fun.protect
    ~finally:(fun () -> rm_rf tmp)
    (fun () ->
      let w = Store.Writer.create ~roll_records:4096 ~dir () in
      Store.Writer.ingest_native w (Arena.of_collection logs);
      ignore (Store.Writer.close w);
      f (fun _ -> `Store_dir dir))

(* [source_of cfg logs f] calls [f] with the pack source at each jobs count. *)
let check_bundle_golden expected source_of () =
  let cfg, logs = rubis () in
  source_of cfg logs (fun source ->
      let one = pack_bytes ~jobs:1 cfg (source 1) in
      let r = Result.get_ok (Bundle.Reader.of_string one) in
      Alcotest.(check bool)
        "several segments" true
        (List.length (Bundle.Reader.store_manifest r).Store.Manifest.segments > 1);
      pin "bundle md5" expected (Digest.to_hex (Digest.string one));
      let two = pack_bytes ~jobs:2 cfg (source 2) in
      Alcotest.(check bool) "jobs 2 = jobs 1" true (String.equal one two))

(* Mesh bundles have concurrent siblings tied on (timestamp, context,
   kind): their bytes are not pinned, but the packed paths must be exactly
   the offline correlator's. A bundle keeps only the count of unfinished
   paths, so both digests take the offline run's. *)
let test_mesh_bundle_offline () =
  let cfg, logs = mesh_control () in
  let offline = Correlator.correlate_arena cfg (Arena.of_collection logs) in
  let bytes = pack_bytes ~jobs:1 cfg (H.run_source ~jobs:1 cfg (Arena.of_collection logs)) in
  let r = Result.get_ok (Bundle.Reader.of_string bytes) in
  let decoded = Result.get_ok (Bundle.Reader.paths r) in
  let finished = List.map (fun p -> p.Bundle.Codec.cag) decoded.Bundle.Codec.paths in
  pin "packed CAGs = offline" (Shard.digest offline)
    (Shard.digest { offline with Correlator.cags = finished })

(* Provenance determinism. Vertices carry the raw rows behind them, and
   the rows' origins must survive the transform's sort and the sharded
   correlator's epoch copies: the PTP1 section (paths and back-links) is
   the same at every [jobs], and so is every vertex's list of sources. *)

let paths_section bytes =
  let _, sections = Result.get_ok (Bundle.Container.parse ~what:"bundle" bytes) in
  match Bundle.Container.find sections "paths" with
  | Some s -> String.sub bytes s.Bundle.Container.pos s.Bundle.Container.len
  | None -> Alcotest.fail "no paths section"

let check_ptp1_jobs build () =
  let cfg, logs = build () in
  let arenas = Arena.of_collection logs in
  let at jobs = paths_section (pack_bytes ~jobs cfg (H.run_source ~jobs cfg arenas)) in
  let one = at 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool) (Printf.sprintf "PTP1 at jobs %d = jobs 1" jobs) true
        (String.equal one (at jobs)))
    [ 2; 4 ]

let sources_by_path (cags : Core.Cag.t list) =
  List.sort compare
    (List.map
       (fun (c : Core.Cag.t) -> (c.Core.Cag.cag_id, List.map Core.Cag.sources (Core.Cag.vertices c)))
       cags)

let test_sources_survive_epochs () =
  let cfg, logs = rubis_low 6 in
  let arenas = Arena.of_collection logs in
  Alcotest.(check bool) "the plan shards" true
    (Array.length (Shard.epoch_ranges (Shard.plan ~jobs:4 cfg arenas)) > 1);
  let sources jobs =
    sources_by_path (Shard.correlate_arena ~jobs cfg arenas).Correlator.cags
  in
  let serial = sources 1 in
  Alcotest.(check bool) "every vertex has sources" true
    (List.for_all (fun (_, vs) -> List.for_all (fun s -> s <> []) vs) serial);
  Alcotest.(check bool) "jobs 4 sources = jobs 1" true (serial = sources 4)

(* Online, each host's n-th delivered row is raw row n, as offline —
   filtered rows (the noisy run's) included. *)
let check_online_sources_equal_offline build () =
  let cfg, logs = build () in
  let offline = Correlator.correlate_arena cfg (Arena.of_collection logs) in
  let expected = sources_by_path offline.Correlator.cags in
  Alcotest.(check bool) "every vertex has sources" true
    (expected <> [] && List.for_all (fun (_, vs) -> List.for_all (fun s -> s <> []) vs) expected);
  Alcotest.(check bool) "online sources = offline" true
    (expected = sources_by_path (Online.paths (replay cfg logs)))

let provenance_cases =
  [
    Alcotest.test_case "PTP1 RUBiS at jobs 1/2/4" `Quick (check_ptp1_jobs (fun () -> rubis ()));
    Alcotest.test_case "PTP1 mesh control at jobs 1/2/4" `Quick
      (check_ptp1_jobs (fun () -> mesh_control ()));
    Alcotest.test_case "PTP1 mesh control, 1 client, at jobs 1/2/4" `Quick
      (check_ptp1_jobs (fun () -> mesh_control ~clients:1 ()));
    Alcotest.test_case "sources survive shard epochs" `Quick test_sources_survive_epochs;
    Alcotest.test_case "online sources = offline" `Quick
      (check_online_sources_equal_offline (fun () -> rubis ()));
    Alcotest.test_case "online sources = offline, noise and skew" `Quick
      (check_online_sources_equal_offline (fun () ->
           rubis ~noise:(S.Paper_noise { db_connections = 2 }) ~skew:(ST.ms 200) ()));
  ]

let bundle_cases =
  [
    Alcotest.test_case "RUBiS store dir" `Quick
      (check_bundle_golden "994b7cfcafd81c0d244749fe54ba1bca" (fun _ -> with_store));
    Alcotest.test_case "RUBiS logs" `Quick
      (check_bundle_golden "7965b2ecec7c94e7fb410d6faedc2463" (fun cfg logs f ->
           f (fun jobs -> H.run_source ~jobs cfg (Arena.of_collection logs))));
    Alcotest.test_case "mesh control = offline" `Quick test_mesh_bundle_offline;
  ]

(* Collection-plane goldens: the MD5 of the PTC1 stream an agent would
   ship for the RUBiS Default run above, each host's rows cut into
   256-row frames (seq = oldest = frame index, watermark = the frame's
   last timestamp), and of the PTA1 acks for every seq. *)

let frame_rows = 256

let collect_streams () =
  let _, logs = rubis () in
  let frames = Buffer.create 65_536 and acks = Buffer.create 256 in
  List.iter
    (fun a ->
      let n = Arena.length a in
      let rec cut seq lo =
        if lo < n then begin
          let hi = min n (lo + frame_rows) in
          let chunk = Arena.create_sid ~capacity:(hi - lo) (Arena.host_sid a) in
          Arena.append_range chunk a ~lo ~hi;
          Buffer.add_string frames
            (Collect.Frame.encode ~seq ~oldest:seq ~host:(Arena.hostname a)
               ~watermark:(ST.of_ns (Arena.ts a (hi - 1)))
               ~payload:(Collect.Frame.encode_payload_arena chunk));
          Buffer.add_string acks (Collect.Frame.encode_ack seq);
          cut (seq + 1) hi
        end
      in
      cut 0 0)
    (Arena.of_collection logs);
  (Buffer.contents frames, Buffer.contents acks)

let test_collect_streams () =
  let frames, acks = collect_streams () in
  (* re-pinned when the watermark became a signed (zigzag) varint *)
  pin "PTC1 md5" "b10c35bde36036fcae552d90f7442caa" (Digest.to_hex (Digest.string frames));
  pin "PTA1 md5" "1f367ff128dd7d42b5493c0e79891a4e" (Digest.to_hex (Digest.string acks))

(* Classification and aggregation goldens: the MD5 of a rendering of
   [Pattern.classify] over a run's finished and unfinished paths (pattern
   order, counts, signatures, names, member ids) and, per pattern, of
   [Aggregate.of_pattern]'s profile, [hop_tails] and [total_tail], every
   float printed exactly with %h. The tail lines were captured from the
   string-keyed classifier whose aggregates walked every member's
   critical path again; the profile lines ("avg", "comp") from the
   per-hop means that profiles were once converted from. *)

module Cag = Core.Cag
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Analysis = Core.Analysis
module Latency = Core.Latency

let render_aggregates cags =
  let b = Buffer.create 65_536 in
  let pr fmt = Printf.bprintf b fmt in
  let guard f = try f () with Invalid_argument m -> pr "  raises %s\n" m in
  List.iter
    (fun (p : Pattern.t) ->
      pr "pattern %s n=%d sig=%s\n " p.Pattern.name (Pattern.count p) p.Pattern.signature;
      List.iter
        (fun (c : Cag.t) -> pr " %d%s" c.Cag.cag_id (if Cag.is_finished c then "" else "u"))
        p.Pattern.cags;
      pr "\n";
      let a = Aggregate.of_pattern p in
      pr "  avg %s n=%d total=%h\n" a.Analysis.name a.Analysis.count a.Analysis.mean_total_s;
      List.iter
        (fun (c : Analysis.component_stat) ->
          pr "  comp %s %h %h\n" (Latency.component_label c.Analysis.comp) c.Analysis.share
            c.Analysis.mean_s)
        a.Analysis.components;
      guard (fun () ->
          List.iter
            (fun (h : Aggregate.hop_tail) ->
              pr "  tail %s %h %h %h %h\n"
                (Latency.component_label h.Aggregate.tail_comp)
                h.Aggregate.p50_s h.Aggregate.p90_s h.Aggregate.p99_s h.Aggregate.tail_max_s)
            (Aggregate.hop_tails p));
      guard (fun () ->
          let t = Aggregate.total_tail p in
          pr "  total %h %h %h %h\n" t.Aggregate.t_p50_s t.Aggregate.t_p90_s t.Aggregate.t_p99_s
            t.Aggregate.t_max_s))
    (Pattern.classify cags);
  Buffer.contents b

let mesh_preset ?(clients = 16) ?(requests = 20) name =
  let spec = Option.get (Mesh.Presets.spec_of ~seed:7 name) in
  let spec = { spec with Mesh.Spec.clients; requests_per_client = requests } in
  let b = Mesh.Runtime.build spec in
  Simnet.Engine.run b.Mesh.Runtime.engine;
  let transform = Core.Transform.config ~entry_points:b.Mesh.Runtime.entries () in
  (Correlator.config ~transform ~window:(ST.ms 5) (), Trace.Probe.logs b.Mesh.Runtime.probe)

let aggregate_cases =
  [
    ("RUBiS Default, seed 42", (fun () -> rubis ()), 3, "7601a21d99affbc511fdbfeeca560fdd");
    ("mesh control", (fun () -> mesh_control ()), 0, "a317db6cad2f5af375c520ab33296fbd");
    ( "mesh cascading_failure, 32 clients x 100 requests",
      (fun () -> mesh_preset ~clients:32 ~requests:100 "cascading_failure"),
      707,
      "2232fdcf6381f7d6d79f8e0c75a1d21f" );
  ]

let check_aggregates (_, build, patterns, expected) () =
  let cfg, logs = build () in
  let r = Correlator.correlate_arena cfg (Arena.of_collection logs) in
  let cags = r.Correlator.cags @ r.Correlator.deformed in
  if patterns > 0 then
    Alcotest.(check int) "patterns" patterns (List.length (Pattern.classify cags));
  pin "classify + aggregate md5" expected (Digest.to_hex (Digest.string (render_aggregates cags)))

(* A test-local copy of the string-keyed classifier and the list-based
   aggregates the library ran before patterns were keyed by interned ids
   and carried their members' critical-path spans: the reference model
   the one-pass classifier must reproduce exactly. *)
module Reference = struct
  module Activity = Trace.Activity

  let causal_parent (v : Cag.vertex) =
    let prefer kind = List.find_opt (fun (k, _) -> k = kind) v.Cag.parents |> Option.map snd in
    match v.Cag.activity.Activity.kind with
    | Activity.Receive -> (
        match prefer Cag.Message_edge with Some p -> Some p | None -> prefer Cag.Context_edge)
    | Activity.Begin | Activity.End_ | Activity.Send -> (
        match prefer Cag.Context_edge with Some p -> Some p | None -> prefer Cag.Message_edge)

  let critical_path cag =
    if not (Cag.is_finished cag) then invalid_arg "Latency.critical_path: CAG not finished";
    let program (v : Cag.vertex) = v.Cag.activity.Activity.context.program in
    let rec back v acc =
      match causal_parent v with
      | None -> acc
      | Some p ->
          let hop =
            {
              Latency.comp = { Latency.src = program p; dst = program v };
              parent = p;
              child = v;
              span = ST.diff v.Cag.activity.Activity.timestamp p.Cag.activity.Activity.timestamp;
            }
          in
          back p (hop :: acc)
    in
    let vertices = Cag.vertices cag in
    back (List.nth vertices (List.length vertices - 1)) []

  (* Names with their separators escaped. *)
  let add_name buf name =
    String.iter
      (fun c ->
        if String.contains "\\/<;" c then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      name

  let signature_of cag =
    let vertices = Cag.vertices cag in
    (* By physical equality over the list, so the reference never reads
       the positions the code under test keeps. *)
    let position (p : Cag.vertex) =
      let rec find i = function
        | v :: rest -> if v == p then i else find (i + 1) rest
        | [] -> raise Not_found
      in
      find 0 vertices
    in
    let buf = Buffer.create 256 in
    List.iter
      (fun (v : Cag.vertex) ->
        let a = v.Cag.activity in
        Buffer.add_string buf (Activity.kind_to_string a.Activity.kind);
        Buffer.add_char buf '/';
        add_name buf a.context.host;
        Buffer.add_char buf '/';
        add_name buf a.context.program;
        let parents =
          List.map
            (fun (kind, (p : Cag.vertex)) ->
              let tag = match kind with Cag.Context_edge -> 'c' | Cag.Message_edge -> 'm' in
              (tag, position p))
            v.Cag.parents
          |> List.sort compare
        in
        List.iter (fun (tag, i) -> Buffer.add_string buf (Printf.sprintf "<%c%d" tag i)) parents;
        Buffer.add_char buf ';')
      vertices;
    Buffer.contents buf

  let route programs =
    let rec dedup = function
      | a :: (b :: _ as rest) when String.equal a b -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    String.concat ">" (dedup programs)

  let name_of cag =
    if Cag.is_finished cag then
      match critical_path cag with
      | [] -> (Cag.root cag).Cag.activity.Activity.context.program
      | first :: _ as hops ->
          route
            (first.Latency.parent.Cag.activity.Activity.context.program
            :: List.map (fun h -> h.Latency.child.Cag.activity.Activity.context.program) hops)
    else
      route
        (List.map
           (fun (v : Cag.vertex) -> v.Cag.activity.Activity.context.program)
           (Cag.vertices cag))

  (* (signature, name, members), ordered as [Pattern.classify] orders. *)
  let classify cags =
    let table = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun cag ->
        let signature = signature_of cag in
        match Hashtbl.find_opt table signature with
        | Some members -> members := cag :: !members
        | None ->
            Hashtbl.replace table signature (ref [ cag ]);
            order := signature :: !order)
      cags;
    List.rev_map
      (fun signature ->
        let members = List.rev !(Hashtbl.find table signature) in
        (signature, name_of (List.hd members), members))
      !order
    |> List.sort (fun (sa, _, a) (sb, _, b) ->
           match Int.compare (List.length b) (List.length a) with
           | 0 -> String.compare sa sb
           | c -> c)

  let span_s = ST.span_to_float_s

  (* The average path: mean end-to-end latency and, per component label
     in first-appearance order, its share and its summed hop means. *)
  let of_pattern cags =
    match List.filter Cag.is_finished cags with
    | [] -> (0.0, [])
    | members ->
        let matrix = List.map (fun c -> Array.of_list (critical_path c)) members in
        let n = float_of_int (List.length matrix) in
        let hop_means =
          List.init
            (Array.length (List.hd matrix))
            (fun i ->
              ( Latency.component_label (List.hd matrix).(i).Latency.comp,
                List.fold_left (fun acc row -> acc +. span_s row.(i).Latency.span) 0.0 matrix
                /. n ))
        in
        let components =
          List.fold_left
            (fun acc (label, mean) ->
              if List.mem_assoc label acc then
                List.map (fun (l, m) -> if String.equal l label then (l, m +. mean) else (l, m)) acc
              else acc @ [ (label, mean) ])
            [] hop_means
        in
        let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 components in
        ( List.fold_left (fun acc c -> acc +. span_s (Cag.duration c)) 0.0 members /. n,
          List.map
            (fun (label, m) -> (label, (if total = 0.0 then 0.0 else m /. total), m))
            components )

  let sorted_finite samples =
    let finite = Array.of_list (List.filter Float.is_finite samples) in
    Array.sort Float.compare finite;
    finite

  let last a = if Array.length a = 0 then 0.0 else a.(Array.length a - 1)

  let finished cags =
    let members = List.filter Cag.is_finished cags in
    if members = [] then invalid_arg "Aggregate: no finished CAGs";
    members

  let hop_tails cags =
    let matrix = List.map (fun c -> Array.of_list (critical_path c)) (finished cags) in
    List.init
      (Array.length (List.hd matrix))
      (fun i ->
        let s = sorted_finite (List.map (fun row -> span_s row.(i).Latency.span) matrix) in
        {
          Aggregate.tail_comp = (List.hd matrix).(i).Latency.comp;
          p50_s = Aggregate.percentile s 0.50;
          p90_s = Aggregate.percentile s 0.90;
          p99_s = Aggregate.percentile s 0.99;
          tail_max_s = last s;
        })

  let total_tail cags =
    let s = sorted_finite (List.map (fun c -> span_s (Cag.duration c)) (finished cags)) in
    {
      Aggregate.t_p50_s = Aggregate.percentile s 0.50;
      t_p90_s = Aggregate.percentile s 0.90;
      t_p99_s = Aggregate.percentile s 0.99;
      t_max_s = last s;
    }

  (* [render_aggregates]'s bytes, from the reference model. *)
  let render cags =
    let b = Buffer.create 65_536 in
    let pr fmt = Printf.bprintf b fmt in
    let guard f = try f () with Invalid_argument m -> pr "  raises %s\n" m in
    List.iter
      (fun (signature, name, members) ->
        pr "pattern %s n=%d sig=%s\n " name (List.length members) signature;
        List.iter
          (fun (c : Cag.t) -> pr " %d%s" c.Cag.cag_id (if Cag.is_finished c then "" else "u"))
          members;
        pr "\n";
        let mean_total_s, components = of_pattern members in
        pr "  avg %s n=%d total=%h\n" name (List.length members) mean_total_s;
        List.iter (fun (label, share, mean_s) -> pr "  comp %s %h %h\n" label share mean_s) components;
        guard (fun () ->
            List.iter
              (fun (h : Aggregate.hop_tail) ->
                pr "  tail %s %h %h %h %h\n"
                  (Latency.component_label h.Aggregate.tail_comp)
                  h.Aggregate.p50_s h.Aggregate.p90_s h.Aggregate.p99_s h.Aggregate.tail_max_s)
              (hop_tails members));
        guard (fun () ->
            let t = total_tail members in
            pr "  total %h %h %h %h\n" t.Aggregate.t_p50_s t.Aggregate.t_p90_s
              t.Aggregate.t_p99_s t.Aggregate.t_max_s))
      (classify cags);
    Buffer.contents b
end

(* Same patterns (signature, name, physically the same members, in
   order) and the same rendering, floats compared bit for bit. *)
let matches_reference cags =
  let expected = Reference.classify cags in
  let actual = Pattern.classify cags in
  List.length expected = List.length actual
  && List.for_all2
       (fun (signature, name, members) (p : Pattern.t) ->
         String.equal signature p.Pattern.signature
         && String.equal signature (Pattern.signature_of (List.hd members))
         && String.equal name p.Pattern.name
         && List.length members = List.length p.Pattern.cags
         && List.for_all2 ( == ) members p.Pattern.cags)
       expected actual
  && String.equal (Reference.render cags) (render_aggregates cags)

(* Random call trees, their feeds cut short at a random row so that some
   paths stay unfinished. *)
let prop_classify_matches_reference =
  QCheck.Test.make ~name:"random topologies: classify + aggregate = string-keyed reference"
    ~count:12
    QCheck.(quad (int_range 2 5) (int_range 1 6) (int_range 50 100) (int_range 1 1000))
    (fun (tiers, clients, keep_pct, seed) ->
      (* Shallow, narrow trees repeat their shapes, so patterns have
         several members to aggregate. *)
      let spec =
        {
          Topo.default_spec with
          Topo.tiers;
          clients;
          requests_per_client = 8;
          max_depth = 1 + (seed mod 3);
          max_fanout = 1 + (seed / 3 mod 2);
          seed;
        }
      in
      let b = Topo.build spec in
      Simnet.Engine.run b.Topo.engine;
      let cut a =
        let hi = Arena.length a * keep_pct / 100 in
        let chunk = Arena.create_sid ~capacity:(max 1 hi) (Arena.host_sid a) in
        Arena.append_range chunk a ~lo:0 ~hi;
        chunk
      in
      let arenas = List.map cut (Arena.of_collection (Trace.Probe.logs b.Topo.probe)) in
      let transform = Core.Transform.config ~entry_points:[ b.Topo.entry ] () in
      let cfg = Correlator.config ~transform ~window:(ST.ms 5) () in
      let r = Correlator.correlate_arena cfg arenas in
      let cags = r.Correlator.cags @ r.Correlator.deformed in
      matches_reference cags)

(* Hand-built paths: BEGIN -> SEND -> RECEIVE -> END, one web and one app
   context, either finished or left open. *)
let hand_path ?(host = "web1") ?(program = "httpd") ?(finished = true) ~cag_id t0 =
  let ctx host program = { Trace.Activity.host; program; pid = 1; tid = 1 } in
  let flow =
    Simnet.Address.flow
      ~src:(Simnet.Address.endpoint (Simnet.Address.ip_of_string "10.0.0.1") 80)
      ~dst:(Simnet.Address.endpoint (Simnet.Address.ip_of_string "10.0.0.2") 8080)
  in
  let act kind ts context =
    {
      Trace.Activity.kind;
      timestamp = ST.of_ns (t0 + ts);
      context;
      message = { Trace.Activity.flow; size = 10 };
    }
  in
  let web = ctx host program and app = ctx "app1" "java" in
  let root = Cag.Builder.fresh_vertex (act Trace.Activity.Begin 0 web) in
  let cag = Cag.Builder.create ~cag_id root in
  let add kind ts context edge parent =
    let v = Cag.Builder.fresh_vertex (act kind ts context) in
    Cag.Builder.adopt cag v;
    Cag.Builder.add_edge edge ~parent ~child:v;
    v
  in
  let s = add Trace.Activity.Send (10 + cag_id) web Cag.Context_edge root in
  let r = add Trace.Activity.Receive (25 + (3 * cag_id)) app Cag.Message_edge s in
  ignore (add Trace.Activity.End_ (40 + (7 * cag_id)) web Cag.Context_edge r);
  if finished then Cag.Builder.finish cag;
  cag

let test_unfinished_members () =
  let cags =
    [
      hand_path ~finished:false ~cag_id:0 0;
      hand_path ~cag_id:1 100;
      hand_path ~finished:false ~cag_id:2 200;
      hand_path ~cag_id:3 300;
    ]
  in
  Alcotest.(check int) "one pattern" 1 (List.length (Pattern.classify cags));
  Alcotest.(check bool) "= reference" true (matches_reference cags);
  let a = Aggregate.of_pattern (List.hd (Pattern.classify cags)) in
  Alcotest.(check int) "every member counted" 4 a.Analysis.count;
  (* paths 1 and 3 last 47 and 61 ns *)
  Alcotest.(check (float 1e-18)) "finished members averaged" 54e-9 a.Analysis.mean_total_s

let test_all_unfinished () =
  let cags = List.init 3 (fun i -> hand_path ~finished:false ~cag_id:i (100 * i)) in
  let p = List.hd (Pattern.classify cags) in
  let raises what expected f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument m -> Alcotest.(check string) what expected m
  in
  let a = Aggregate.of_pattern p in
  Alcotest.(check (float 0.0)) "of_pattern: mean 0" 0.0 a.Analysis.mean_total_s;
  Alcotest.(check int) "of_pattern: no components" 0 (List.length a.Analysis.components);
  raises "hop_tails" "Aggregate: no finished CAGs" (fun () -> ignore (Aggregate.hop_tails p));
  raises "total_tail" "Aggregate: no finished CAGs" (fun () -> ignore (Aggregate.total_tail p));
  Alcotest.(check bool) "= reference" true (matches_reference cags)

let test_one_member () =
  let cags = [ hand_path ~cag_id:5 0 ] in
  Alcotest.(check bool) "= reference" true (matches_reference cags);
  let t = List.hd (Aggregate.hop_tails (List.hd (Pattern.classify cags))) in
  Alcotest.(check bool) "p50 = max" true (t.Aggregate.p50_s = t.Aggregate.tail_max_s)

(* The signature string joins host and program with '/', so "a/b" on
   "c" and "a" on "b/c" would render alike unescaped; escaped, the two
   patterns the grouping key holds apart get distinct signatures. *)
let test_separator_in_names () =
  let a = hand_path ~host:"a/b" ~program:"c" ~cag_id:0 0 in
  let b = hand_path ~host:"a" ~program:"b/c" ~cag_id:1 100 in
  Alcotest.(check bool) "distinct signature strings" false
    (String.equal (Pattern.signature_of a) (Pattern.signature_of b));
  Alcotest.(check int) "two patterns" 2 (List.length (Pattern.classify [ a; b ]));
  let each_separator =
    List.mapi
      (fun i c -> hand_path ~host:(Printf.sprintf "h%cx" c) ~program:"p" ~cag_id:(2 + i) (200 + i))
      [ '\\'; '/'; '<'; ';' ]
  in
  Alcotest.(check bool) "= reference" true (matches_reference (a :: b :: each_separator))

let () =
  Alcotest.run "goldens"
    [
      ("pinned", List.map (fun c -> Alcotest.test_case c.name `Quick (check_case c)) cases);
      ("adapters", [ QCheck_alcotest.to_alcotest prop_record_equals_arena ]);
      ( "planner",
        List.map
          (fun ((name, _, _, _) as c) -> Alcotest.test_case name `Quick (check_plan c))
          plan_cases );
      ("bundles", bundle_cases);
      ("sources", provenance_cases);
      ("frames", [ Alcotest.test_case "RUBiS PTC1 frames and PTA1 acks" `Quick test_collect_streams ]);
      ( "patterns",
        List.map
          (fun ((name, _, _, _) as c) -> Alcotest.test_case name `Quick (check_aggregates c))
          aggregate_cases );
      ( "classify",
        [
          QCheck_alcotest.to_alcotest prop_classify_matches_reference;
          Alcotest.test_case "pattern with unfinished members" `Quick test_unfinished_members;
          Alcotest.test_case "pattern with no finished member" `Quick test_all_unfinished;
          Alcotest.test_case "one-member pattern" `Quick test_one_member;
          Alcotest.test_case "separators inside names" `Quick test_separator_in_names;
        ] );
    ]
