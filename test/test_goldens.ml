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
   in-memory [`Arenas] source cut into synthetic segments of the same size.
   Captured before the packer moved onto arena rows; [~jobs:2] must
   produce the same bytes as [~jobs:1]. *)

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
      f (`Store_dir dir))

let check_bundle_golden expected source_of () =
  let cfg, logs = rubis () in
  source_of logs (fun source ->
      let one = pack_bytes ~jobs:1 cfg source in
      let r = Result.get_ok (Bundle.Reader.of_string one) in
      Alcotest.(check bool)
        "several segments" true
        (List.length (Bundle.Reader.store_manifest r).Store.Manifest.segments > 1);
      pin "bundle md5" expected (Digest.to_hex (Digest.string one));
      let two = pack_bytes ~jobs:2 cfg source in
      Alcotest.(check bool) "jobs 2 = jobs 1" true (String.equal one two))

(* Mesh bundles have concurrent siblings tied on (timestamp, context,
   kind): their bytes are not pinned, but the packed paths must be exactly
   the offline correlator's. A bundle keeps only the count of unfinished
   paths, so both digests take the offline run's. *)
let test_mesh_bundle_offline () =
  let cfg, logs = mesh_control () in
  let offline = Correlator.correlate_arena cfg (Arena.of_collection logs) in
  let bytes = pack_bytes ~jobs:1 cfg (`Arenas (Arena.of_collection logs)) in
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
  let at jobs = paths_section (pack_bytes ~jobs cfg (`Arenas arenas)) in
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
      (check_bundle_golden "994b7cfcafd81c0d244749fe54ba1bca" with_store);
    Alcotest.test_case "RUBiS logs" `Quick
      (check_bundle_golden "7965b2ecec7c94e7fb410d6faedc2463" (fun logs f ->
           f (`Arenas (Arena.of_collection logs))));
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
  pin "PTC1 md5" "a3cbd6ecc7187b8df22fdffa3d713d45" (Digest.to_hex (Digest.string frames));
  pin "PTA1 md5" "1f367ff128dd7d42b5493c0e79891a4e" (Digest.to_hex (Digest.string acks))

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
    ]
