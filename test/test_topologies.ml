(* Property tests over random multi-tier topologies: the accuracy claim
   must hold for arbitrary synchronous-RPC call trees, not just the
   RUBiS-shaped pipeline — covering the paper's claim to handle the
   concurrent-server design patterns of Stevens' catalogue. *)

module H = Test_helpers.Helpers
module Topo = Mesh.Random_spec
module ST = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

let check_perfect ?window spec =
  let result, verdict, _ = Topo.run_and_score ?window spec in
  if verdict.Core.Accuracy.accuracy < 1.0 then
    Alcotest.failf "accuracy %.4f (%d/%d, fp %d fn %d) for seed %d" verdict.accuracy
      verdict.correct verdict.total_requests verdict.false_positives verdict.false_negatives
      spec.Topo.seed;
  Alcotest.(check int) "no false positives" 0 verdict.Core.Accuracy.false_positives;
  Alcotest.(check int) "no deformed" 0 (List.length result.Core.Correlator.deformed);
  List.iter H.check_valid result.Core.Correlator.cags;
  (result, verdict)

let test_three_tier_basic () = ignore (check_perfect Topo.default_spec)

let test_two_tiers () =
  ignore (check_perfect { Topo.default_spec with Topo.tiers = 2; seed = 5 })

let test_five_tiers_deep () =
  ignore
    (check_perfect
       { Topo.default_spec with Topo.tiers = 5; max_depth = 4; max_fanout = 3; seed = 9 })

let test_callbacks_to_earlier_tiers () =
  (* Deep trees over three tiers force 1->2->1 call-backs. *)
  let result, _ =
    check_perfect
      { Topo.default_spec with Topo.tiers = 3; max_depth = 4; max_fanout = 2; seed = 13 }
  in
  (* At least one path should visit more than 3 contexts (a call-back). *)
  let deep =
    List.exists
      (fun cag -> List.length (Core.Cag.contexts cag) > 3)
      result.Core.Correlator.cags
  in
  Alcotest.(check bool) "call-backs exercised" true deep

let test_tiny_chunks () =
  (* 512-byte syscalls shred every message; merging must reassemble all. *)
  let result, _ =
    check_perfect { Topo.default_spec with Topo.chunk = 512; seed = 21 }
  in
  let stats = result.Core.Correlator.engine_stats in
  Alcotest.(check bool) "merging exercised" true (stats.Core.Cag_engine.send_merges > 100)

let test_heavy_skew_small_window () =
  ignore
    (check_perfect ~window:(ST.ms 1)
       { Topo.default_spec with Topo.max_skew = ST.ms 400; seed = 33 })

let test_many_clients_contention () =
  ignore
    (check_perfect
       { Topo.default_spec with Topo.clients = 20; requests_per_client = 8; seed = 41 })

let test_straddling_chunk () =
  (* 16184-byte syscalls leave a 250-byte tail that one 8192-byte read
     straddles into; every window must still score 1.0 with no forced
     discard (it scored 11/15 at 5 and 50 ms before the engine re-entered
     the grown SEND into the mmap). *)
  List.iter
    (fun ms ->
      let result, _ =
        check_perfect ~window:(ST.ms ms)
          { Topo.default_spec with Topo.chunk = 16184; seed = 164; clients = 3 }
      in
      Alcotest.(check int)
        (Printf.sprintf "no forced discards at %d ms" ms)
        0 result.Core.Correlator.ranker_stats.Core.Ranker.forced_discards)
    [ 1; 5; 50 ]

let prop_random_topologies_perfect =
  QCheck.Test.make ~name:"100% accuracy on random topologies" ~count:25
    QCheck.(
      quad (int_range 2 5) (* tiers *)
        (int_range 1 10) (* clients *)
        (int_range 0 300) (* skew ms *)
        (int_range 1 1000 (* seed *)))
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
      let result, verdict, _ = Topo.run_and_score spec in
      verdict.Core.Accuracy.accuracy = 1.0
      && verdict.false_positives = 0
      && result.Core.Correlator.deformed = []
      && result.ranker_stats.Core.Ranker.forced_discards = 0)

let prop_chunking_invariant =
  QCheck.Test.make ~name:"accuracy independent of chunk size" ~count:12
    QCheck.(pair (int_range 256 16_384) (int_range 1 500))
    (fun (chunk, seed) ->
      let spec = { Topo.default_spec with Topo.chunk; seed; clients = 3 } in
      let _, verdict, _ = Topo.run_and_score spec in
      verdict.Core.Accuracy.accuracy = 1.0)

let prop_window_invariant =
  QCheck.Test.make ~name:"accuracy independent of window size" ~count:10
    QCheck.(pair (int_range 1 10_000) (int_range 1 500))
    (fun (window_ms, seed) ->
      let spec = { Topo.default_spec with Topo.seed = seed; clients = 3 } in
      let _, verdict, _ = Topo.run_and_score ~window:(ST.ms window_ms) spec in
      verdict.Core.Accuracy.accuracy = 1.0)

let prop_online_equals_offline =
  QCheck.Test.make ~name:"online == offline on random topologies" ~count:10
    QCheck.(pair (int_range 2 4) (int_range 1 500))
    (fun (tiers, seed) ->
      let spec =
        { Topo.default_spec with Topo.tiers; seed; clients = 4; requests_per_client = 3 }
      in
      let b = Topo.build spec in
      Simnet.Engine.run b.Topo.engine;
      let logs = Trace.Probe.logs b.probe in
      let transform = Core.Transform.config ~entry_points:[ b.entry ] () in
      let cfg = Core.Correlator.config ~transform () in
      let offline = Core.Correlator.correlate cfg logs in
      let online = Core.Online.create ~config:cfg ~hosts:b.hostnames () in
      Core.Online.replay online (Trace.Arena.of_collection logs);
      Core.Online.finish online;
      let sigs cags = List.map Core.Pattern.signature_of cags in
      sigs offline.Core.Correlator.cags = sigs (Core.Online.paths online))

let () =
  Alcotest.run "topologies"
    [
      ( "shapes",
        [
          Alcotest.test_case "three tiers" `Quick test_three_tier_basic;
          Alcotest.test_case "two tiers" `Quick test_two_tiers;
          Alcotest.test_case "five tiers, deep trees" `Quick test_five_tiers_deep;
          Alcotest.test_case "call-backs to earlier tiers" `Quick
            test_callbacks_to_earlier_tiers;
          Alcotest.test_case "tiny syscall chunks" `Quick test_tiny_chunks;
          Alcotest.test_case "heavy skew, small window" `Quick test_heavy_skew_small_window;
          Alcotest.test_case "client contention" `Quick test_many_clients_contention;
          Alcotest.test_case "read straddling a send boundary" `Quick test_straddling_chunk;
        ] );
      ( "properties",
        [
          qtest prop_random_topologies_perfect;
          qtest prop_chunking_invariant;
          qtest prop_window_invariant;
          qtest prop_online_equals_offline;
        ] );
    ]
