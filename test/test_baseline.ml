(* Tests for the Project5/WAP5-style nesting baseline (extension ext-1):
   exact on sequential workloads, degrading under concurrency and skew —
   the contrast the paper draws with probabilistic correlators. *)

module H = Test_helpers.Helpers
module Nesting = Core.Nesting
module Transform = Core.Transform
module Correlator = Core.Correlator
module Accuracy = Core.Accuracy
module Scenario = Tiersim.Scenario
module Sim_time = Simnet.Sim_time

let run_spec spec =
  let outcome = Scenario.run spec in
  let prepared = H.transform_logs outcome.Scenario.transform outcome.Scenario.logs in
  let paths = Nesting.infer prepared in
  let verdict = Nesting.score ~ground_truth:outcome.ground_truth paths in
  (outcome, paths, verdict)

let sequential_spec =
  (* One client: no concurrency anywhere; the baseline should be exact. *)
  { Scenario.default with Scenario.clients = 1; time_scale = 0.02; seed = 31 }

let concurrent_spec =
  { Scenario.default with Scenario.clients = 150; time_scale = 0.03; seed = 31 }

let test_nesting_exact_when_sequential () =
  let _, paths, verdict = run_spec sequential_spec in
  Alcotest.(check bool) "paths found" true (paths <> []);
  Alcotest.(check (float 0.0)) "accuracy 100% without concurrency" 1.0
    verdict.Accuracy.accuracy

let test_nesting_path_shape () =
  let _, paths, _ = run_spec sequential_spec in
  let p = List.hd paths in
  let programs =
    List.map
      (fun (v : Trace.Ground_truth.visit) -> v.context.Trace.Activity.program)
      p.Nesting.visits
  in
  Alcotest.(check (list string)) "pid-level route" [ "httpd"; "java"; "mysqld" ] programs

let test_nesting_degrades_under_concurrency () =
  let _, _, verdict = run_spec concurrent_spec in
  Alcotest.(check bool) "imprecise under concurrency" true
    (verdict.Accuracy.accuracy < 0.999);
  Alcotest.(check bool) "but far from useless" true (verdict.Accuracy.accuracy > 0.2)

let test_precisetracer_beats_nesting () =
  (* Same trace, both tracers: PreciseTracer 100%, nesting below. *)
  let outcome = Scenario.run concurrent_spec in
  let cfg = Correlator.config ~transform:outcome.Scenario.transform () in
  let result = Correlator.correlate cfg outcome.Scenario.logs in
  let precise = Accuracy.check ~ground_truth:outcome.ground_truth result.Correlator.cags in
  let prepared = H.transform_logs outcome.transform outcome.logs in
  let nesting = Nesting.score ~ground_truth:outcome.ground_truth (Nesting.infer prepared) in
  Alcotest.(check (float 0.0)) "precise = 100%" 1.0 precise.Accuracy.accuracy;
  Alcotest.(check bool) "nesting strictly worse" true
    (nesting.Accuracy.accuracy < precise.Accuracy.accuracy)

let test_nesting_hurt_by_skew () =
  (* The baseline trusts timestamps; enough skew to reorder send/recv at
     merge time costs it accuracy even with modest concurrency. *)
  let spec =
    { Scenario.default with Scenario.clients = 60; time_scale = 0.03; seed = 7 }
  in
  let _, _, no_skew = run_spec spec in
  let _, _, skewed = run_spec { spec with Scenario.skew = Sim_time.ms 400 } in
  Alcotest.(check bool) "skew does not help" true
    (skewed.Accuracy.accuracy <= no_skew.Accuracy.accuracy +. 1e-9)

let test_nesting_completed_paths_only () =
  let _, paths, _ = run_spec sequential_spec in
  List.iter
    (fun (p : Nesting.path) ->
      Alcotest.(check bool) "entry is web tier" true
        (String.equal
           (List.hd p.Nesting.visits).context.Trace.Activity.program
           "httpd"))
    paths

(* ---- DPM pairwise-causality baseline ---- *)

let dpm_eval spec =
  let outcome = Scenario.run spec in
  let prepared = H.transform_logs outcome.Scenario.transform outcome.Scenario.logs in
  let graph = Core.Dpm.build prepared in
  let stats = Core.Dpm.evaluate ~ground_truth:outcome.ground_truth graph in
  (graph, stats, outcome)

let test_dpm_sequential_exact () =
  (* One client: no overlap, so the pairwise graph contains exactly the
     real paths. *)
  let graph, stats, outcome = dpm_eval sequential_spec in
  Alcotest.(check bool) "graph built" true (Core.Dpm.message_count graph > 0);
  Alcotest.(check int) "one path per request"
    (Trace.Ground_truth.count outcome.Scenario.ground_truth)
    stats.Core.Dpm.paths_found;
  Alcotest.(check int) "all real" stats.paths_found stats.real_paths;
  Alcotest.(check int) "no phantoms" 0 stats.phantom_paths

let test_dpm_phantoms_under_concurrency () =
  (* Overlapping requests share entities; the pairwise graph links one
     request's input to another's output - the paper's critique. *)
  let _, stats, outcome = dpm_eval concurrent_spec in
  let requests = Trace.Ground_truth.count outcome.Scenario.ground_truth in
  Alcotest.(check bool) "more paths than requests (or truncated)" true
    (stats.Core.Dpm.paths_found > requests || stats.truncated);
  Alcotest.(check bool) "phantom paths exist" true (stats.phantom_paths > 0)

let test_dpm_enumeration_capped () =
  let outcome = Scenario.run concurrent_spec in
  let prepared = H.transform_logs outcome.Scenario.transform outcome.Scenario.logs in
  let graph = Core.Dpm.build prepared in
  let stats = Core.Dpm.evaluate ~max_paths:50 ~ground_truth:outcome.ground_truth graph in
  Alcotest.(check int) "cap honoured" 50 stats.Core.Dpm.paths_found;
  Alcotest.(check bool) "truncation reported" true stats.truncated

let () =
  Alcotest.run "baseline"
    [
      ( "dpm",
        [
          Alcotest.test_case "exact when sequential" `Quick test_dpm_sequential_exact;
          Alcotest.test_case "phantoms under concurrency" `Quick
            test_dpm_phantoms_under_concurrency;
          Alcotest.test_case "enumeration cap" `Quick test_dpm_enumeration_capped;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "exact when sequential" `Quick test_nesting_exact_when_sequential;
          Alcotest.test_case "path shape" `Quick test_nesting_path_shape;
          Alcotest.test_case "degrades under concurrency" `Quick
            test_nesting_degrades_under_concurrency;
          Alcotest.test_case "PreciseTracer beats it" `Quick test_precisetracer_beats_nesting;
          Alcotest.test_case "skew does not help it" `Quick test_nesting_hurt_by_skew;
          Alcotest.test_case "paths start at the entry tier" `Quick
            test_nesting_completed_paths_only;
        ] );
    ]
