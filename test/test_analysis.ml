(* Tests for the analysis layer: critical-path latency, patterns, average
   causal paths, accuracy scoring, profile diagnosis and reports. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Cag = Core.Cag
module Latency = Core.Latency
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Accuracy = Core.Accuracy
module Analysis = Core.Analysis
module Report = Core.Report
module Ground_truth = Trace.Ground_truth
module Sim_time = Simnet.Sim_time

let one_cag ?base ?askew ?dskew () =
  let logs = H.logs_of_request ?base ?askew ?dskew () in
  let engine, _ = H.correlate_raw logs in
  match Core.Cag_engine.finished engine with
  | [ cag ] -> cag
  | _ -> Alcotest.fail "expected one CAG"

(* ---- Latency ---- *)

let test_critical_path_chain () =
  let cag = one_cag () in
  let hops = Latency.critical_path cag in
  let labels = List.map (fun h -> Latency.component_label h.Latency.comp) hops in
  Alcotest.(check (list string)) "the paper's hop sequence"
    [
      "httpd2httpd"; "httpd2java"; "java2java"; "java2mysqld"; "mysqld2mysqld";
      "mysqld2java"; "java2java"; "java2httpd"; "httpd2httpd";
    ]
    labels

let test_breakdown_sums_to_duration () =
  let cag = one_cag () in
  let parts = Latency.breakdown cag in
  let total = List.fold_left (fun acc (_, s) -> acc + Sim_time.span_ns s) 0 parts in
  Alcotest.(check int) "telescoping sum" (Sim_time.span_ns (Cag.duration cag)) total

let test_breakdown_sums_under_skew () =
  (* Cross-node skews cancel along round trips; the sum stays skew-free. *)
  let cag = one_cag ~askew:123_000 ~dskew:(-456_000) () in
  let parts = Latency.breakdown cag in
  let total = List.fold_left (fun acc (_, s) -> acc + Sim_time.span_ns s) 0 parts in
  Alcotest.(check int) "still telescopes" (Sim_time.span_ns (Cag.duration cag)) total

let test_unfinished_rejected () =
  let root =
    Cag.Builder.fresh_vertex
      (H.act ~kind:Activity.Begin ~ts:0 ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:1)
  in
  let cag = Cag.Builder.create ~cag_id:99 root in
  match Latency.critical_path cag with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unfinished CAG accepted"

(* ---- Pattern ---- *)

let test_isomorphic_same_signature () =
  let a = one_cag ~base:0 () in
  let b = one_cag ~base:50_000_000 () in
  Alcotest.(check string) "same signature" (Pattern.signature_of a) (Pattern.signature_of b)

let test_pattern_name () =
  let cag = one_cag () in
  Alcotest.(check string) "route" "httpd>java>mysqld>java>httpd" (Pattern.name_of cag)

let test_different_shapes_different_patterns () =
  (* Drop the db call: web->app->web only. *)
  let w =
    [
      H.act ~kind:Activity.Begin ~ts:0 ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:400;
      H.act ~kind:Activity.Send ~ts:1_000 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:500;
      H.act ~kind:Activity.Receive ~ts:8_000 ~ctx:H.web_ctx ~flow:H.app_web_flow ~size:2000;
      H.act ~kind:Activity.End_ ~ts:9_000 ~ctx:H.web_ctx ~flow:H.web_client_flow ~size:2400;
    ]
  in
  let a =
    [
      H.act ~kind:Activity.Receive ~ts:2_000 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:500;
      H.act ~kind:Activity.Send ~ts:7_000 ~ctx:H.app_ctx ~flow:H.app_web_flow ~size:2000;
    ]
  in
  let logs = [ Trace.Log.of_list ~hostname:"web" w; Trace.Log.of_list ~hostname:"app" a ] in
  let engine, _ = H.correlate_raw logs in
  let short = List.hd (Core.Cag_engine.finished engine) in
  let long = one_cag () in
  Alcotest.(check bool) "different signatures" false
    (String.equal (Pattern.signature_of short) (Pattern.signature_of long));
  let patterns = Pattern.classify [ short; long; one_cag ~base:1_000_000 () ] in
  Alcotest.(check int) "two patterns" 2 (List.length patterns);
  Alcotest.(check int) "largest first" 2 (Pattern.count (List.hd patterns))

let test_signature_ignores_pids_sizes () =
  (* Same shape with different pids/ports/sizes is the same pattern. *)
  let remap (a : Activity.t) =
    let c = a.context in
    {
      a with
      Activity.context = { c with Activity.pid = c.pid + 1000; tid = c.tid + 1000 };
      message = { a.message with size = a.message.size * 2 };
    }
  in
  let logs =
    List.map
      (fun log ->
        Trace.Log.of_list ~hostname:(Trace.Log.hostname log)
          (List.map remap (Trace.Log.to_list log)))
      (H.logs_of_request ())
  in
  let engine, _ = H.correlate_raw logs in
  let other = List.hd (Core.Cag_engine.finished engine) in
  Alcotest.(check string) "pids/sizes abstracted" (Pattern.signature_of (one_cag ()))
    (Pattern.signature_of other)

(* ---- Aggregate ---- *)

let test_average_path () =
  let cags = [ one_cag ~base:0 (); one_cag ~base:20_000_000 (); one_cag ~base:40_000_000 () ] in
  match Pattern.classify cags with
  | [ p ] ->
      let avg = Aggregate.of_pattern p in
      Alcotest.(check int) "count" 3 avg.Analysis.count;
      Alcotest.(check (float 1e-9)) "mean total (identical members)" 0.009 avg.mean_total_s;
      let pcts = Analysis.shares avg in
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 pcts in
      Alcotest.(check (float 1e-9)) "percentages sum" 1.0 total;
      Alcotest.(check int) "7 components" 7 (List.length pcts)
  | _ -> Alcotest.fail "one pattern"

let test_slower_member_surfaces () =
  (* Two CAGs whose db time differs: the slower one raises the average
     path's db component, in seconds and in share. *)
  let slow_db =
    let w, a, d = H.simple_request ~base:50_000_000 () in
    let d =
      List.map
        (fun (x : Activity.t) ->
          if Activity.equal_kind x.kind Activity.Send then
            { x with Activity.timestamp = Sim_time.add x.timestamp (Sim_time.ms 2) }
          else x)
        d
    in
    [
      Trace.Log.of_list ~hostname:"web" w;
      Trace.Log.of_list ~hostname:"app" a;
      Trace.Log.of_list ~hostname:"db" d;
    ]
  in
  let engine, _ = H.correlate_raw slow_db in
  let slow = List.hd (Core.Cag_engine.finished engine) in
  let db cags =
    match Pattern.classify cags with
    | [ p ] ->
        List.find
          (fun (c : Analysis.component_stat) ->
            String.equal (Latency.component_label c.Analysis.comp) "mysqld2mysqld")
          (Aggregate.of_pattern p).Analysis.components
    | _ -> Alcotest.fail "one pattern"
  in
  let fast = db [ one_cag () ] and both = db [ one_cag (); slow ] in
  Alcotest.(check bool) "db mean rises" true (both.Analysis.mean_s > fast.Analysis.mean_s);
  Alcotest.(check bool) "db share rises" true (both.Analysis.share > fast.Analysis.share)

(* A one-member pattern's profile is that CAG's breakdown: each
   component's mean is its summed span, and the shares sum to 1. *)
let test_one_member_is_breakdown () =
  let cag = one_cag () in
  match Pattern.classify [ cag ] with
  | [ p ] ->
      let profile = Aggregate.of_pattern p in
      let breakdown = Latency.breakdown cag in
      Alcotest.(check (list string)) "components in breakdown order"
        (List.map (fun (c, _) -> Latency.component_label c) breakdown)
        (List.map
           (fun (c : Analysis.component_stat) -> Latency.component_label c.Analysis.comp)
           profile.Analysis.components);
      List.iter2
        (fun (_, span) (c : Analysis.component_stat) ->
          Alcotest.(check (float 1e-12))
            (Latency.component_label c.Analysis.comp)
            (Sim_time.span_to_float_s span) c.Analysis.mean_s)
        breakdown profile.Analysis.components;
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Analysis.shares profile) in
      Alcotest.(check (float 1e-12)) "shares sum to 1" 1.0 total
  | _ -> Alcotest.fail "one pattern"

let test_tail_percentiles () =
  (* 9 fast paths and 1 with a 5ms-slower db hop: the db hop's max and the
     total's tail must surface it, while p50 stays fast. *)
  let fast = List.init 9 (fun i -> one_cag ~base:(i * 20_000_000) ()) in
  let slow =
    (* the db result send and everything after it slip by 5ms *)
    let shift_from idx l =
      List.mapi
        (fun i (x : Activity.t) ->
          if i >= idx then { x with Activity.timestamp = Sim_time.add x.timestamp (Sim_time.ms 5) }
          else x)
        l
    in
    let w, a, d = H.simple_request ~base:200_000_000 () in
    let logs =
      [
        Trace.Log.of_list ~hostname:"web" (shift_from 2 w);
        Trace.Log.of_list ~hostname:"app" (shift_from 2 a);
        Trace.Log.of_list ~hostname:"db" (shift_from 1 d);
      ]
    in
    let engine, _ = H.correlate_raw logs in
    List.hd (Core.Cag_engine.finished engine)
  in
  match Pattern.classify (fast @ [ slow ]) with
  | [ p ] ->
      let tails = Aggregate.hop_tails p in
      let db =
        List.find
          (fun h ->
            String.equal (Latency.component_label h.Aggregate.tail_comp) "mysqld2mysqld")
          tails
      in
      Alcotest.(check (float 1e-9)) "db p50 is the fast value" 0.001 db.Aggregate.p50_s;
      Alcotest.(check (float 1e-9)) "db max catches the straggler" 0.006 db.tail_max_s;
      Alcotest.(check bool) "monotone percentiles" true
        (db.p50_s <= db.p90_s && db.p90_s <= db.p99_s && db.p99_s <= db.tail_max_s);
      let tt = Aggregate.total_tail p in
      Alcotest.(check (float 1e-9)) "total p50" 0.009 tt.Aggregate.t_p50_s;
      Alcotest.(check (float 1e-9)) "total max" 0.014 tt.t_max_s;
      let rendered = Format.asprintf "%a" Aggregate.pp_tails p in
      Alcotest.(check bool) "pp_tails mentions the component" true
        (H.contains rendered "mysqld2mysqld")
  | _ -> Alcotest.fail "one pattern"

let test_tail_uniform () =
  let cags = List.init 4 (fun i -> one_cag ~base:(i * 20_000_000) ()) in
  match Pattern.classify cags with
  | [ p ] ->
      let tt = Aggregate.total_tail p in
      Alcotest.(check (float 1e-9)) "uniform p50=max" tt.Aggregate.t_max_s tt.t_p50_s
  | _ -> Alcotest.fail "one pattern"

(* ---- Accuracy ---- *)

let gt_for_request ?(id = 0) cag =
  let gt = Ground_truth.create () in
  let visits = Accuracy.visits_of_cag cag in
  List.iter
    (fun (v : Ground_truth.visit) ->
      Ground_truth.begin_visit gt ~id ~kind:"T" ~context:v.context ~ts:v.begin_ts;
      Ground_truth.end_visit gt ~id ~context:v.context ~ts:v.end_ts)
    visits;
  Ground_truth.complete gt ~id;
  gt

let test_accuracy_perfect () =
  let cag = one_cag () in
  let gt = gt_for_request cag in
  let v = Accuracy.check ~ground_truth:gt [ cag ] in
  Alcotest.(check (float 0.0)) "100%" 1.0 v.Accuracy.accuracy;
  Alcotest.(check int) "no fp" 0 v.false_positives;
  Alcotest.(check int) "no fn" 0 v.false_negatives

let test_accuracy_tolerance () =
  let cag = one_cag () in
  let gt = Ground_truth.create () in
  List.iter
    (fun (v : Ground_truth.visit) ->
      (* shift the oracle by 100us: within the default 500us tolerance *)
      Ground_truth.begin_visit gt ~id:0 ~kind:"T" ~context:v.context
        ~ts:(Sim_time.add v.begin_ts (Sim_time.us 100));
      Ground_truth.end_visit gt ~id:0 ~context:v.context
        ~ts:(Sim_time.add v.end_ts (Sim_time.us 100)))
    (Accuracy.visits_of_cag cag);
  Ground_truth.complete gt ~id:0;
  let v = Accuracy.check ~ground_truth:gt [ cag ] in
  Alcotest.(check (float 0.0)) "within tolerance" 1.0 v.Accuracy.accuracy;
  let strict = Accuracy.check ~tolerance:(Sim_time.us 10) ~ground_truth:gt [ cag ] in
  Alcotest.(check (float 0.0)) "strict tolerance fails" 0.0 strict.Accuracy.accuracy;
  Alcotest.(check int) "fp counted" 1 strict.false_positives;
  Alcotest.(check int) "fn counted" 1 strict.false_negatives

let test_accuracy_wrong_context () =
  let cag = one_cag () in
  let gt = Ground_truth.create () in
  List.iteri
    (fun i (v : Ground_truth.visit) ->
      let context =
        if i = 1 then { v.context with Activity.tid = 9999 } else v.context
      in
      Ground_truth.begin_visit gt ~id:0 ~kind:"T" ~context ~ts:v.begin_ts;
      Ground_truth.end_visit gt ~id:0 ~context ~ts:v.end_ts)
    (Accuracy.visits_of_cag cag);
  Ground_truth.complete gt ~id:0;
  let v = Accuracy.check ~ground_truth:gt [ cag ] in
  Alcotest.(check (float 0.0)) "tid mismatch rejected" 0.0 v.Accuracy.accuracy

let test_accuracy_no_double_match () =
  (* Two identical derived paths cannot both claim the single request. *)
  let cag = one_cag () in
  let gt = gt_for_request cag in
  let v = Accuracy.check ~ground_truth:gt [ cag; cag ] in
  Alcotest.(check int) "one correct" 1 v.Accuracy.correct;
  Alcotest.(check int) "one fp" 1 v.false_positives

let test_accuracy_empty () =
  let gt = Ground_truth.create () in
  let v = Accuracy.check ~ground_truth:gt [] in
  Alcotest.(check (float 0.0)) "vacuous 100%" 1.0 v.Accuracy.accuracy

(* ---- Analysis ---- *)

let comp src dst = { Latency.src; dst }

let test_diagnose_tier_internal () =
  let baseline =
    [ (comp "java" "java", 0.10); (comp "httpd" "httpd", 0.40); (comp "java" "mysqld", 0.50) ]
  in
  let observed =
    [ (comp "java" "java", 0.45); (comp "httpd" "httpd", 0.25); (comp "java" "mysqld", 0.30) ]
  in
  let report = Analysis.compare_profiles ~baseline ~observed in
  (match report.Analysis.suspects with
  | s :: _ ->
      Alcotest.(check string) "tier java blamed" "tier java"
        (Analysis.subject_label s.Analysis.subject)
  | [] -> Alcotest.fail "no suspect");
  (match report.deltas with
  | d :: _ ->
      Alcotest.(check string) "largest delta first" "java2java"
        (Latency.component_label d.Analysis.comp)
  | [] -> Alcotest.fail "no deltas")

let test_diagnose_interaction () =
  let baseline = [ (comp "httpd" "java", 0.05); (comp "java" "java", 0.45) ] in
  let observed = [ (comp "httpd" "java", 0.60); (comp "java" "java", 0.15) ] in
  let report = Analysis.compare_profiles ~baseline ~observed in
  match report.Analysis.suspects with
  | s :: _ ->
      Alcotest.(check string) "interaction blamed" "interaction httpd->java"
        (Analysis.subject_label s.Analysis.subject)
  | [] -> Alcotest.fail "no suspect"

let test_diagnose_network () =
  (* The paper's EJB_Network signature: interactions around java rise,
     java2java collapses. *)
  let baseline =
    [
      (comp "java" "mysqld", 0.26); (comp "mysqld" "java", 0.37); (comp "java" "java", 0.09);
      (comp "httpd" "java", 0.01); (comp "java" "httpd", 0.04);
    ]
  in
  let observed =
    [
      (comp "java" "mysqld", 0.47); (comp "mysqld" "java", 0.37); (comp "java" "java", 0.005);
      (comp "httpd" "java", 0.02); (comp "java" "httpd", 0.08);
    ]
  in
  let report = Analysis.compare_profiles ~baseline ~observed in
  let subjects =
    List.map (fun s -> Analysis.subject_label s.Analysis.subject) report.Analysis.suspects
  in
  Alcotest.(check bool) "network of java suspected" true
    (List.mem "network of tier java" subjects)

let test_diagnose_healthy () =
  let profile = [ (comp "a" "a", 0.5); (comp "a" "b", 0.5) ] in
  let report = Analysis.compare_profiles ~baseline:profile ~observed:profile in
  Alcotest.(check int) "no suspects" 0 (List.length report.Analysis.suspects)

(* ---- comparing two runs ---- *)

(* A profile whose java2java share is [java] (httpd2httpd has the rest);
   [java = None] is a pattern with no finished member. *)
let profile ?(count = 1) name signature java =
  let components =
    match java with
    | None -> []
    | Some share ->
        [
          { Analysis.comp = comp "java" "java"; share; mean_s = 0.0 };
          { Analysis.comp = comp "httpd" "httpd"; share = 1.0 -. share; mean_s = 0.0 };
        ]
  in
  { Analysis.name; signature; count; cag_ids = []; mean_total_s = 0.0; components }

let compare_runs ?pattern baseline observed =
  Analysis.compare_runs ?pattern ~baseline ~observed ()

let paired pairs =
  List.map
    (fun { Analysis.baseline; observed; _ } ->
      (baseline.Analysis.signature, observed.Analysis.signature))
    pairs

let culprit_label pairs =
  Option.map (fun s -> Analysis.subject_label s.Analysis.subject) (Analysis.culprit pairs)

let test_runs_order_and_join () =
  (* Observed classify order decides; two patterns named "r" stay apart. *)
  let baseline = [ profile "r" "s2" (Some 0.5); profile "q" "s1" (Some 0.1) ] in
  let observed =
    [
      profile ~count:9 "q" "s1" (Some 0.6); profile "r" "s3" (Some 0.9);
      profile "r" "s2" (Some 0.5);
    ]
  in
  let pairs = Result.get_ok (compare_runs baseline observed) in
  Alcotest.(check (list (pair string string)))
    "observed order, joined by signature" [ ("s1", "s1"); ("s2", "s2") ] (paired pairs);
  Alcotest.(check (option string)) "culprit from the first pair" (Some "tier java")
    (culprit_label pairs);
  (* The first pair decides even when it has no suspect. *)
  let quiet = Result.get_ok (compare_runs baseline (List.rev observed)) in
  Alcotest.(check (list (pair string string)))
    "reversed order" [ ("s2", "s2"); ("s1", "s1") ] (paired quiet);
  Alcotest.(check (option string)) "quiet first pair" None (culprit_label quiet)

let test_runs_skip_without_components () =
  let baseline =
    [ profile "a" "sa" (Some 0.1); profile "b" "sb" None; profile "c" "sc" (Some 0.1) ]
  in
  let observed =
    [ profile "a" "sa" None; profile "b" "sb" (Some 0.5); profile "c" "sc" (Some 0.5) ]
  in
  Alcotest.(check (list (pair string string)))
    "only pairs with components on both sides" [ ("sc", "sc") ]
    (paired (Result.get_ok (compare_runs baseline observed)))

let test_runs_pattern_and_errors () =
  let baseline =
    [ profile "a" "sa" (Some 0.1); profile "b" "sb" (Some 0.1); profile "x" "sx" (Some 0.1) ]
  in
  let observed =
    [ profile "a" "sa" (Some 0.5); profile "b" "sb" (Some 0.2); profile "y" "sy" (Some 0.1) ]
  in
  Alcotest.(check (list (pair string string)))
    "--pattern keeps that name" [ ("sb", "sb") ]
    (paired (Result.get_ok (compare_runs ~pattern:"b" baseline observed)));
  let error ?pattern baseline observed =
    match compare_runs ?pattern baseline observed with Ok _ -> "" | Error e -> e
  in
  Alcotest.(check string) "absent from both"
    "pattern \"z\" absent from the baseline run" (error ~pattern:"z" baseline observed);
  Alcotest.(check string) "absent from the observed run"
    "pattern \"x\" absent from the observed run" (error ~pattern:"x" baseline observed);
  Alcotest.(check string) "absent from the baseline run"
    "pattern \"y\" absent from the baseline run" (error ~pattern:"y" baseline observed);
  Alcotest.(check string) "same name, other signature" "no pattern present in both runs"
    (error [ profile "a" "s1" (Some 0.1) ] [ profile "a" "s2" (Some 0.1) ]);
  Alcotest.(check string) "nothing shared" "no pattern present in both runs" (error [] observed)

let test_report_render () =
  let t = Report.table ~title:"Fig. X" ~columns:[ "clients"; "value" ] in
  Report.add_row t [ "100"; Report.cell_pct 0.463 ];
  Report.add_row t [ "1000"; Report.cell_float ~decimals:1 12.345 ];
  let rendered = Report.render t in
  Alcotest.(check bool) "title" true (H.contains rendered "== Fig. X ==");
  Alcotest.(check bool) "pct cell" true (H.contains rendered "46.3%");
  Alcotest.(check bool) "float cell" true (H.contains rendered "12.3");
  let csv = Report.to_csv t in
  Alcotest.(check bool) "csv header" true (H.contains csv "clients,value");
  match Report.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "width mismatch accepted"

let () =
  Alcotest.run "analysis"
    [
      ( "latency",
        [
          Alcotest.test_case "critical path chain" `Quick test_critical_path_chain;
          Alcotest.test_case "breakdown telescopes" `Quick test_breakdown_sums_to_duration;
          Alcotest.test_case "telescopes under skew" `Quick test_breakdown_sums_under_skew;
          Alcotest.test_case "unfinished rejected" `Quick test_unfinished_rejected;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "isomorphic CAGs share signature" `Quick
            test_isomorphic_same_signature;
          Alcotest.test_case "route naming" `Quick test_pattern_name;
          Alcotest.test_case "shape split" `Quick test_different_shapes_different_patterns;
          Alcotest.test_case "pids and sizes abstracted" `Quick test_signature_ignores_pids_sizes;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "average path" `Quick test_average_path;
          Alcotest.test_case "slower member surfaces" `Quick test_slower_member_surfaces;
          Alcotest.test_case "one member = breakdown" `Quick test_one_member_is_breakdown;
          Alcotest.test_case "tail percentiles" `Quick test_tail_percentiles;
          Alcotest.test_case "uniform tail" `Quick test_tail_uniform;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "perfect match" `Quick test_accuracy_perfect;
          Alcotest.test_case "tolerance window" `Quick test_accuracy_tolerance;
          Alcotest.test_case "wrong context rejected" `Quick test_accuracy_wrong_context;
          Alcotest.test_case "no double matching" `Quick test_accuracy_no_double_match;
          Alcotest.test_case "empty inputs" `Quick test_accuracy_empty;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "tier internal fault" `Quick test_diagnose_tier_internal;
          Alcotest.test_case "interaction fault" `Quick test_diagnose_interaction;
          Alcotest.test_case "network fault" `Quick test_diagnose_network;
          Alcotest.test_case "healthy profile" `Quick test_diagnose_healthy;
          Alcotest.test_case "runs: order and signature join" `Quick test_runs_order_and_join;
          Alcotest.test_case "runs: pairs need components" `Quick
            test_runs_skip_without_components;
          Alcotest.test_case "runs: --pattern and errors" `Quick test_runs_pattern_and_errors;
        ] );
      ( "report",
        [ Alcotest.test_case "table rendering" `Quick test_report_render ] );
    ]
