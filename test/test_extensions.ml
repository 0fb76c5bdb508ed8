(* Tests for the extension modules: skew estimation, online correlation. *)

module H = Test_helpers.Helpers
module S = Tiersim.Scenario
module Faults = Tiersim.Faults
module Skew = Core.Skew_estimator
module Online = Core.Online
module ST = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

let correlate outcome =
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  Core.Correlator.correlate cfg outcome.S.logs

(* ---- Skew_estimator ---- *)

let test_skew_zero () =
  let outcome = S.run { S.default with S.clients = 20; time_scale = 0.02 } in
  let result = correlate outcome in
  let est = Skew.estimate result.Core.Correlator.cags in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s offset ~0" e.Skew.host)
        true
        (abs (ST.span_ns e.Skew.offset) < ST.span_ns (ST.ms 1)))
    (Skew.offsets est)

let test_skew_recovered () =
  (* app runs +200ms, db -200ms (relative to web, the reference). *)
  let outcome =
    S.run { S.default with S.clients = 20; time_scale = 0.02; skew = ST.ms 200 }
  in
  let result = correlate outcome in
  let est = Skew.estimate ~reference:"web1" result.Core.Correlator.cags in
  let check host expected_ms =
    let off = ST.span_ns (Skew.offset_of est host) in
    let err = abs (off - (expected_ms * 1_000_000)) in
    (* residual error is bounded by half the min-delay asymmetry; give 2ms *)
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %+dms (got %+.2fms)" host expected_ms
         (float_of_int off /. 1e6))
      true
      (err < 2_000_000)
  in
  check "web1" 0;
  check "app1" 200;
  check "db1" (-200)

let test_skew_transitive () =
  (* db1 never exchanges messages with web1 directly; its offset must be
     recovered through app1. That is exactly the deployment's shape. *)
  let outcome =
    S.run { S.default with S.clients = 10; time_scale = 0.02; skew = ST.ms 100 }
  in
  let result = correlate outcome in
  let est = Skew.estimate ~reference:"web1" result.Core.Correlator.cags in
  let db = List.find (fun e -> String.equal e.Skew.host "db1") (Skew.offsets est) in
  Alcotest.(check bool) "recovered via app1" true (db.Skew.pairs_used > 0);
  Alcotest.(check bool) "value ~ -100ms" true
    (abs (ST.span_ns db.offset + 100_000_000) < 2_000_000);
  (* and there are no direct web<->db samples *)
  Alcotest.(check bool) "no direct pair" true
    (not (List.exists (fun (a, b, _) -> a = "web1" && b = "db1") (Skew.samples est)))

let test_skew_corrected_breakdown () =
  let skewed =
    S.run { S.default with S.clients = 20; time_scale = 0.02; skew = ST.ms 300 }
  in
  let clean = S.run { S.default with S.clients = 20; time_scale = 0.02 } in
  let pick_cag outcome =
    let result = correlate outcome in
    List.find
      (fun c -> List.length (Core.Cag.contexts c) = 3)
      result.Core.Correlator.cags
  in
  let skewed_result = correlate skewed in
  let est = Skew.estimate skewed_result.Core.Correlator.cags in
  let cag = pick_cag skewed in
  let raw = Core.Latency.breakdown cag in
  let corrected = Skew.corrected_breakdown est cag in
  let lookup parts label =
    List.fold_left
      (fun acc (c, s) ->
        if String.equal (Core.Latency.component_label c) label then ST.span_ns s else acc)
      0 parts
  in
  (* raw httpd2java absorbs +300ms of skew; corrected must be plausible *)
  Alcotest.(check bool) "raw absorbs skew" true (lookup raw "httpd2java" > 250_000_000);
  let corrected_h2j = lookup corrected "httpd2java" in
  Alcotest.(check bool) "corrected is sub-5ms" true
    (corrected_h2j >= 0 && corrected_h2j < 5_000_000);
  (* corrected totals still telescope to the (skew-free) duration *)
  let total = List.fold_left (fun acc (_, s) -> acc + ST.span_ns s) 0 corrected in
  Alcotest.(check bool) "total preserved" true
    (abs (total - ST.span_ns (Core.Cag.duration cag)) < 3_000_000);
  ignore clean

let test_skew_empty () =
  let est = Skew.estimate [] in
  Alcotest.(check int) "only the unknown reference" 1 (List.length (Skew.offsets est));
  Alcotest.(check int) "unknown host offset 0" 0 (ST.span_ns (Skew.offset_of est "nope"))

let prop_skew_recovery =
  QCheck.Test.make ~name:"injected skews recovered within 2ms" ~count:8
    QCheck.(pair (int_range 0 400) (int_range 1 100))
    (fun (skew_ms, seed) ->
      let outcome =
        S.run { S.default with S.clients = 10; time_scale = 0.02; seed; skew = ST.ms skew_ms }
      in
      let result = correlate outcome in
      let est = Skew.estimate ~reference:"web1" result.Core.Correlator.cags in
      let ok host expected =
        abs (ST.span_ns (Skew.offset_of est host) - expected) < 2_000_000
      in
      ok "app1" (skew_ms * 1_000_000) && ok "db1" (-skew_ms * 1_000_000))

(* ---- Ablations ---- *)

let test_ablation_rule1_essential () =
  let outcome = S.run { S.default with S.clients = 40; time_scale = 0.02 } in
  let run_with ablation =
    let cfg = Core.Correlator.config ~transform:outcome.S.transform ~ablation () in
    let result = Core.Correlator.correlate cfg outcome.S.logs in
    Core.Accuracy.check ~ground_truth:outcome.S.ground_truth result.Core.Correlator.cags
  in
  let full = run_with Core.Ranker.no_ablation in
  Alcotest.(check (float 0.0)) "full = 100%" 1.0 full.Core.Accuracy.accuracy;
  let no_rule1 =
    run_with { Core.Ranker.disable_rule1 = true; disable_promotion = false }
  in
  Alcotest.(check bool) "rule 1 is essential" true
    (no_rule1.Core.Accuracy.accuracy < 0.5)

let test_ablation_promotion_needed_for_fig6 () =
  (* The paper's Fig. 6 deadlock: with promotion disabled the ranker can
     only escape by force-discarding a live receive. *)
  let f12 = H.flow "10.0.0.1" 100 "10.0.0.2" 200 in
  let f21 = H.flow "10.0.0.2" 300 "10.0.0.1" 400 in
  let n1 =
    [
      H.act ~kind:Trace.Activity.Receive ~ts:10 ~ctx:(H.ctx ~host:"n1" ~pid:1 ~tid:1 ()) ~flow:f21 ~size:5;
      H.act ~kind:Trace.Activity.Send ~ts:11 ~ctx:(H.ctx ~host:"n1" ~pid:2 ~tid:2 ()) ~flow:f12 ~size:5;
    ]
  in
  let n2 =
    [
      H.act ~kind:Trace.Activity.Receive ~ts:10 ~ctx:(H.ctx ~host:"n2" ~pid:3 ~tid:3 ()) ~flow:f12 ~size:5;
      H.act ~kind:Trace.Activity.Send ~ts:11 ~ctx:(H.ctx ~host:"n2" ~pid:4 ~tid:4 ()) ~flow:f21 ~size:5;
    ]
  in
  let logs = [ Trace.Log.of_list ~hostname:"n1" n1; Trace.Log.of_list ~hostname:"n2" n2 ] in
  let run_with ablation =
    let engine = Core.Cag_engine.create () in
    let ranker =
      Core.Ranker.create ~window:(ST.ms 10) ~ablation
        ~has_mmap_send:(Core.Cag_engine.has_mmap_send engine)
        logs
    in
    let rec loop () =
      match Core.Ranker.rank ranker with
      | Some a ->
          Core.Cag_engine.step engine a;
          loop ()
      | None -> ()
    in
    loop ();
    Core.Ranker.stats ranker
  in
  let full = run_with Core.Ranker.no_ablation in
  Alcotest.(check int) "no forced discards with promotion" 0 full.Core.Ranker.forced_discards;
  let no_promo =
    run_with { Core.Ranker.disable_rule1 = false; disable_promotion = true }
  in
  Alcotest.(check bool) "forced discard without promotion" true
    (no_promo.Core.Ranker.forced_discards > 0)

let test_gc_bounds_mmap () =
  (* Noise responses to filtered clients leave unmatched sends behind; the
     periodic GC must keep the mmap bounded without costing accuracy. *)
  let outcome =
    S.run
      {
        S.default with
        S.clients = 30;
        time_scale = 0.05;
        noise = S.Paper_noise { db_connections = 3 };
      }
  in
  let cfg =
    Core.Correlator.config ~transform:outcome.S.transform ~window:(ST.ms 2) ()
  in
  let result = Core.Correlator.correlate cfg outcome.S.logs in
  let verdict = Core.Accuracy.check ~ground_truth:outcome.S.ground_truth result.Core.Correlator.cags in
  Alcotest.(check (float 0.0)) "accuracy intact" 1.0 verdict.Core.Accuracy.accuracy;
  (* residual entries are only what the final GC window hadn't reached *)
  Alcotest.(check bool)
    (Printf.sprintf "mmap bounded (%d left)"
       result.engine_stats.Core.Cag_engine.mmap_entries)
    true
    (result.engine_stats.Core.Cag_engine.mmap_entries < 2000)

let test_gc_never_evicts_live () =
  (* On a clean trace the GC finds nothing to evict mid-run. *)
  let engine = Core.Cag_engine.create () in
  let logs =
    H.transform_logs
      (Core.Transform.config ~entry_points:[ H.ep "10.0.1.1" 80 ] ())
      (H.logs_of_request ())
  in
  let ranker =
    Core.Ranker.create ~window:(ST.ms 10)
      ~has_mmap_send:(Core.Cag_engine.has_mmap_send engine)
      logs
  in
  let rec loop () =
    match Core.Ranker.rank ranker with
    | Some a ->
        Core.Cag_engine.step engine a;
        loop ()
    | None -> ()
  in
  loop ();
  Alcotest.(check int) "nothing stale" 0
    (Core.Cag_engine.gc engine ~older_than:ST.zero);
  Alcotest.(check int) "finished fine" 1
    (Core.Cag_engine.stats engine).Core.Cag_engine.cags_finished

(* ---- Online ---- *)

let online_replay outcome =
  (* Replay the offline logs through the online API in timestamp-merged
     order, as live feeding would deliver them. *)
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let hosts = List.map Trace.Log.hostname outcome.S.logs in
  let online = Online.create ~config:cfg ~hosts () in
  Online.replay online (Trace.Arena.of_collection outcome.S.logs);
  online

let test_online_matches_offline () =
  let outcome = S.run { S.default with S.clients = 30; time_scale = 0.02 } in
  let offline = correlate outcome in
  let online = online_replay outcome in
  let before_close = List.length (Online.paths online) in
  Online.finish online;
  let online_paths = Online.paths online in
  Alcotest.(check int) "same path count"
    (List.length offline.Core.Correlator.cags)
    (List.length online_paths);
  Alcotest.(check bool) "most paths emitted before close" true
    (before_close > List.length online_paths / 2);
  (* same signatures, same order of completion *)
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same shape" (Core.Pattern.signature_of a)
        (Core.Pattern.signature_of b))
    offline.Core.Correlator.cags online_paths;
  let verdict = Core.Accuracy.check ~ground_truth:outcome.S.ground_truth online_paths in
  Alcotest.(check (float 0.0)) "online accuracy 100%" 1.0 verdict.Core.Accuracy.accuracy

let test_online_with_skew_and_noise () =
  let outcome =
    S.run
      {
        S.default with
        S.clients = 20;
        time_scale = 0.02;
        skew = ST.ms 200;
        noise = S.Paper_noise { db_connections = 2 };
      }
  in
  let online = online_replay outcome in
  Online.finish online;
  let verdict =
    Core.Accuracy.check ~ground_truth:outcome.S.ground_truth (Online.paths online)
  in
  Alcotest.(check (float 0.0)) "accuracy 100%" 1.0 verdict.Core.Accuracy.accuracy;
  Alcotest.(check bool) "noise discarded online" true
    ((Online.ranker_stats online).Core.Ranker.noise_discarded > 50)

let test_online_arena_feed_matches_offline () =
  (* The native feed — whole per-host arenas through [observe_arena] —
     must land on exactly the offline result, like the record feed does. *)
  let outcome = S.run { S.default with S.clients = 20; time_scale = 0.02 } in
  let offline = correlate outcome in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let hosts = List.map Trace.Log.hostname outcome.S.logs in
  let online = Online.create ~config:cfg ~hosts () in
  List.iter (Online.observe_arena online) (Trace.Arena.of_collection outcome.S.logs);
  Online.finish online;
  let online_paths = Online.paths online in
  Alcotest.(check int) "same path count"
    (List.length offline.Core.Correlator.cags)
    (List.length online_paths);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same shape" (Core.Pattern.signature_of a)
        (Core.Pattern.signature_of b))
    offline.Core.Correlator.cags online_paths

let test_online_withholds_until_watermark () =
  (* Feed only the entry BEGIN: nothing can be emitted (other nodes might
     still report earlier activities). *)
  let w, _, _ = H.simple_request () in
  let transform = Core.Transform.config ~entry_points:[ H.ep "10.0.1.1" 80 ] () in
  let cfg = Core.Correlator.config ~transform ~skew_allowance:(ST.ms 100) () in
  let online = Online.create ~config:cfg ~hosts:[ "web"; "app"; "db" ] () in
  H.observe_record online (List.hd w);
  Alcotest.(check int) "withheld" 0 (List.length (Online.paths online));
  Alcotest.(check int) "pending" 1 (Online.pending online);
  Online.finish online;
  (* a lone BEGIN never finishes a path, but it is now consumed *)
  Alcotest.(check int) "consumed after close" 0 (Online.pending online);
  Alcotest.(check int) "one deformed" 1 (List.length (Online.deformed online))

let test_online_live_during_simulation () =
  (* Listen on the probe and correlate while the simulation runs. *)
  let spec = { S.default with S.clients = 15; time_scale = 0.02 } in
  let up, runtime, down = S.stage_spans ~time_scale:spec.S.time_scale in
  let cfg =
    {
      Tiersim.Service.default_config with
      Tiersim.Service.seed = spec.S.seed;
      max_threads = spec.S.max_threads;
    }
  in
  let svc = Tiersim.Service.create cfg in
  Trace.Probe.enable (Tiersim.Service.probe svc);
  let correlator_cfg =
    Core.Correlator.config ~transform:(Tiersim.Service.transform_config svc) ()
  in
  let live_count = ref 0 in
  let online =
    Online.create ~config:correlator_cfg ~hosts:(Tiersim.Service.server_hostnames svc)
      ~on_path:(fun _ -> incr live_count)
      ()
  in
  Trace.Probe.add_listener (Tiersim.Service.probe svc) (H.observe_record online);
  let stop = ST.add (ST.add (ST.add ST.zero up) runtime) down in
  Tiersim.Client.start svc
    {
      Tiersim.Client.count = spec.S.clients;
      mix = spec.S.mix;
      ramp_up = up;
      stop_issuing_at = stop;
      only_kind = None;
    };
  Simnet.Engine.run (Tiersim.Service.engine svc);
  Alcotest.(check bool) "paths emitted during the run" true (!live_count > 0);
  Online.finish online;
  let verdict =
    Core.Accuracy.check
      ~ground_truth:(Tiersim.Service.ground_truth svc)
      (Online.paths online)
  in
  Alcotest.(check (float 0.0)) "live accuracy 100%" 1.0 verdict.Core.Accuracy.accuracy

let () =
  Alcotest.run "extensions"
    [
      ( "skew_estimator",
        [
          Alcotest.test_case "zero skew" `Quick test_skew_zero;
          Alcotest.test_case "recovers injected skews" `Quick test_skew_recovered;
          Alcotest.test_case "transitive recovery" `Quick test_skew_transitive;
          Alcotest.test_case "corrected breakdown" `Quick test_skew_corrected_breakdown;
          Alcotest.test_case "empty input" `Quick test_skew_empty;
          qtest prop_skew_recovery;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "rule 1 essential" `Quick test_ablation_rule1_essential;
          Alcotest.test_case "promotion resolves Fig. 6" `Quick
            test_ablation_promotion_needed_for_fig6;
        ] );
      ( "gc",
        [
          Alcotest.test_case "bounds the mmap under noise" `Quick test_gc_bounds_mmap;
          Alcotest.test_case "no eviction on clean traces" `Quick test_gc_never_evicts_live;
        ] );
      ( "online",
        [
          Alcotest.test_case "matches offline exactly" `Quick test_online_matches_offline;
          Alcotest.test_case "skew and noise" `Quick test_online_with_skew_and_noise;
          Alcotest.test_case "arena feed matches offline" `Quick
            test_online_arena_feed_matches_offline;
          Alcotest.test_case "watermark withholding" `Quick
            test_online_withholds_until_watermark;
          Alcotest.test_case "live during simulation" `Quick test_online_live_during_simulation;
        ] );
    ]
