(* Tests for the telemetry subsystem: histogram math, registry semantics,
   exporters, and — the acceptance criteria — agreement between the mirrored
   registry counters and the legacy Ranker.stats / Cag_engine.stats records,
   both offline and through the online pipeline. *)

module H = Test_helpers.Helpers
module Hist = Telemetry.Histogram
module R = Telemetry.Registry
module Export = Telemetry.Export
module Json = Core.Json
module S = Tiersim.Scenario
module Online = Core.Online
module ST = Simnet.Sim_time

let feq = Alcotest.(check (float 1e-9))

let feq_rel name expected got =
  let tol = 1e-9 +. (abs_float expected *. 1e-9) in
  Alcotest.(check (float tol)) name expected got

(* ---- Histogram ---- *)

let test_hist_exact_stats () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 0.5; 1.5; 2.5; 10.0 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  feq "sum" 14.5 (Hist.sum h);
  feq "min" 0.5 (Hist.min_value h);
  feq "max" 10.0 (Hist.max_value h);
  feq_rel "mean" 3.625 (Hist.mean h)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  feq "sum" 0.0 (Hist.sum h);
  feq "quantile of empty" 0.0 (Hist.quantile h 0.5);
  Alcotest.(check int) "no buckets" 0 (List.length (Hist.buckets h))

let test_hist_quantile_accuracy () =
  (* With the default 16 buckets/decade the relative error of any quantile
     is bounded by one bucket ratio, 10^(1/16) - 1 ~ 15.5%. *)
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.observe h (float_of_int i /. 1000.0)
  done;
  List.iter
    (fun q ->
      let est = Hist.quantile h q in
      let rel = abs_float (est -. q) /. q in
      if rel > 0.16 then
        Alcotest.failf "q%.2f: estimate %g vs exact %g (rel %.3f)" q est q rel)
    [ 0.5; 0.9; 0.99 ];
  (* Quantiles are clamped into the observed range. *)
  let lo = Hist.quantile h 0.0001 and hi = Hist.quantile h 1.0 in
  if lo < Hist.min_value h then Alcotest.failf "quantile below min: %g" lo;
  if hi > Hist.max_value h then Alcotest.failf "quantile above max: %g" hi

let test_hist_buckets_cumulative () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 0.001; 0.01; 0.01; 0.1; 1.0; 1.0; 1.0 ];
  let buckets = Hist.buckets h in
  Alcotest.(check bool) "non-empty" true (buckets <> []);
  let rec check_monotone prev = function
    | [] -> ()
    | b :: rest ->
        if b.Hist.cumulative < prev then
          Alcotest.failf "cumulative decreased: %d after %d" b.Hist.cumulative prev;
        check_monotone b.Hist.cumulative rest
  in
  check_monotone 0 buckets;
  let last = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check int) "last cumulative = count" (Hist.count h) last.Hist.cumulative;
  let rec sorted = function
    | a :: b :: rest -> a.Hist.upper < b.Hist.upper && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "uppers strictly increasing" true (sorted buckets)

let test_hist_nonpositive_and_nan () =
  let h = Hist.create () in
  Hist.observe h 0.0;
  Hist.observe h (-5.0);
  Hist.observe h Float.nan;
  (* NaN ignored entirely; non-positive values count into the lowest bucket. *)
  Alcotest.(check int) "count" 2 (Hist.count h);
  feq "sum" (-5.0) (Hist.sum h);
  feq "min" (-5.0) (Hist.min_value h)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.observe a) [ 0.1; 0.2 ];
  List.iter (Hist.observe b) [ 0.3; 0.4; 0.5 ];
  Hist.merge_into ~dst:a b;
  Alcotest.(check int) "count" 5 (Hist.count a);
  feq_rel "sum" 1.5 (Hist.sum a);
  feq "min" 0.1 (Hist.min_value a);
  feq "max" 0.5 (Hist.max_value a)

(* ---- Registry ---- *)

let test_registry_counters () =
  let reg = R.create () in
  let c = R.counter reg ~help:"test" "pt_test_total" in
  R.incr c;
  R.add c 4;
  Alcotest.(check int) "value" 5 (R.counter_value c);
  (* Same name + labels resolves to the same cell. *)
  let c' = R.counter reg "pt_test_total" in
  R.incr c';
  Alcotest.(check int) "shared cell" 6 (R.counter_value c);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Telemetry.Registry.add: counters only go up") (fun () ->
      R.add c (-1))

let test_registry_labels_separate () =
  let reg = R.create () in
  let a = R.counter reg ~labels:[ ("host", "a") ] "pt_lbl_total" in
  let b = R.counter reg ~labels:[ ("host", "b") ] "pt_lbl_total" in
  R.add a 2;
  R.add b 7;
  Alcotest.(check int) "a" 2 (R.counter_value a);
  Alcotest.(check int) "b" 7 (R.counter_value b);
  (* Label order does not matter for identity. *)
  let a2 = R.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "pt_multi_total" in
  let a3 = R.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "pt_multi_total" in
  R.incr a2;
  Alcotest.(check int) "order-insensitive" 1 (R.counter_value a3)

let test_registry_kind_clash () =
  let reg = R.create () in
  ignore (R.counter reg "pt_clash" : R.counter);
  match R.gauge reg "pt_clash" with
  | (_ : R.gauge) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_registry_gauges () =
  let reg = R.create () in
  let g = R.gauge reg "pt_g" in
  R.set g 3.5;
  feq "set" 3.5 (R.gauge_value g);
  R.set_max g 2.0;
  feq "set_max keeps larger" 3.5 (R.gauge_value g);
  R.set_max g 9.0;
  feq "set_max raises" 9.0 (R.gauge_value g)

let test_registry_span () =
  let reg = R.create () in
  let x = R.time reg "pt_span_seconds" (fun () -> 41 + 1) in
  Alcotest.(check int) "returns body result" 42 x;
  match R.find_sample (R.snapshot reg) "pt_span_seconds" with
  | Some (R.Hist { count; sum; _ }) ->
      Alcotest.(check int) "one observation" 1 count;
      if sum < 0.0 then Alcotest.fail "negative elapsed time"
  | _ -> Alcotest.fail "expected histogram sample"

let test_registry_snapshot_sorted () =
  let reg = R.create () in
  R.incr (R.counter reg "pt_b_total");
  R.incr (R.counter reg "pt_a_total");
  R.set (R.gauge reg "pt_c") 1.0;
  let names = List.map (fun (f : R.family) -> f.R.name) (R.snapshot reg) in
  Alcotest.(check (list string))
    "sorted by name"
    [ "pt_a_total"; "pt_b_total"; "pt_c" ]
    names

(* ---- Exporters ---- *)

let sample_registry () =
  let reg = R.create () in
  R.add (R.counter reg ~help:"requests" ~labels:[ ("host", "a\"b") ] "pt_req_total") 3;
  R.set (R.gauge reg ~help:"queue depth" "pt_depth") 2.5;
  let h = R.histogram reg ~help:"latency" "pt_lat_seconds" in
  List.iter (R.observe h) [ 0.01; 0.02; 0.04 ];
  reg

let test_prometheus_export () =
  let text = Export.to_prometheus (R.snapshot (sample_registry ())) in
  let has needle = Alcotest.(check bool) needle true (H.contains text needle) in
  has "# TYPE pt_req_total counter";
  has "# HELP pt_req_total requests";
  has "pt_req_total{host=\"a\\\"b\"} 3";
  has "# TYPE pt_depth gauge";
  has "pt_depth 2.5";
  has "# TYPE pt_lat_seconds histogram";
  has "pt_lat_seconds_bucket{le=\"+Inf\"} 3";
  has "pt_lat_seconds_count 3";
  has "pt_lat_seconds_sum";
  (* Every non-comment line is "name[{labels}] value" with a finite value. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "malformed line: %s" line
           | Some i ->
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               if not (Float.is_finite (float_of_string v)) then
                 Alcotest.failf "non-finite value in: %s" line)

let test_json_export_parses () =
  let text = Export.to_json_string (R.snapshot (sample_registry ())) in
  match Json.of_string text with
  | Error e -> Alcotest.failf "exporter output does not parse: %s" e
  | Ok json -> (
      match Json.member "pt_req_total" json with
      | None -> Alcotest.fail "missing pt_req_total family"
      | Some fam -> (
          (match Json.member "type" fam with
          | Some (Json.String "counter") -> ()
          | _ -> Alcotest.fail "type should be counter");
          match Json.member "samples" fam with
          | Some (Json.List [ sample ]) -> (
              match Json.member "value" sample with
              | Some (Json.Int 3) -> ()
              | _ -> Alcotest.fail "counter value should be Int 3")
          | _ -> Alcotest.fail "expected one sample"))

let test_json_parser_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("a", Json.List [ Json.Int 1; Json.String "x"; Json.List [] ]);
        ("o", Json.Obj [ ("k", Json.Float 0.25) ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Ok j' ->
      Alcotest.(check string) "round-trip" (Json.to_string j) (Json.to_string j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parser_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "should have rejected %S" s
      | Error _ -> ())
    bad;
  match Json.of_string "\"\\u0041\\u00e9\"" with
  | Ok (Json.String "A\xc3\xa9") -> ()
  | Ok j -> Alcotest.failf "unicode escape decoded wrong: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "unicode escape rejected: %s" e

let test_json_field_decoders () =
  let j =
    Json.Obj [ ("n", Json.Int 3); ("s", Json.String "x"); ("l", Json.List [ Json.Int 1 ]) ]
  in
  let err = function Ok _ -> Alcotest.fail "accepted" | Error e -> e in
  Alcotest.(check (result int string)) "int" (Ok 3) (Json.int_field "n" j);
  Alcotest.(check (result (float 0.) string)) "int as float" (Ok 3.) (Json.float_field "n" j);
  Alcotest.(check string) "missing" "missing field \"m\"" (err (Json.int_field "m" j));
  Alcotest.(check string)
    "wrong type" "field \"s\": expected an integer"
    (err (Json.int_field "s" j));
  Alcotest.(check (result (list int) string))
    "elements" (Ok [ 1 ])
    (Result.bind (Json.list_field "l" j) (Json.map_result (Json.as_int "l")));
  Alcotest.(check string)
    "first element error" "field \"l\": expected a string"
    (err (Json.map_result (Json.as_string "l") [ Json.Int 1; Json.Null ]))

(* ---- Pipeline mirroring (acceptance) ---- *)

let counter_exn snap ?labels name =
  match R.find_sample snap ?labels name with
  | Some (R.Counter n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "%s missing from registry" name

let gauge_exn snap name =
  match R.find_sample snap name with
  | Some (R.Gauge v) -> v
  | Some _ -> Alcotest.failf "%s is not a gauge" name
  | None -> Alcotest.failf "%s missing from registry" name

(* Every field of both stats records, destructured without [_] so a field
   added to either record fails to compile here until it is exported. *)
let check_mirrors snap (rstats : Core.Ranker.stats) (estats : Core.Cag_engine.stats) =
  let ceq name v = Alcotest.(check int) name v (counter_exn snap name) in
  let geq name v = feq name (float_of_int v) (gauge_exn snap name) in
  let {
    Core.Ranker.fetched;
    candidates;
    noise_discarded;
    promotions;
    forced_fetches;
    forced_discards;
    peak_buffered;
    resorted;
    quarantined;
    stragglers_evicted;
    straggler_resyncs;
    backpressure_pops;
  } =
    rstats
  in
  ceq "pt_ranker_fetched_total" fetched;
  ceq "pt_ranker_candidates_total" candidates;
  ceq "pt_ranker_noise_discarded_total" noise_discarded;
  ceq "pt_ranker_promotions_total" promotions;
  ceq "pt_ranker_forced_fetches_total" forced_fetches;
  ceq "pt_ranker_forced_discards_total" forced_discards;
  geq "pt_ranker_peak_buffered" peak_buffered;
  ceq "pt_ranker_resorted_total" resorted;
  Alcotest.(check int) "every reject reason listed"
    (List.length Core.Ranker.all_reject_reasons) (List.length quarantined);
  List.iter
    (fun (reason, n) ->
      let label = Core.Ranker.reject_reason_to_string reason in
      Alcotest.(check int)
        ("pt_ranker_quarantined_total{reason=" ^ label ^ "}")
        n
        (counter_exn snap ~labels:[ ("reason", label) ] "pt_ranker_quarantined_total"))
    quarantined;
  ceq "pt_ranker_stragglers_evicted_total" stragglers_evicted;
  ceq "pt_ranker_straggler_resyncs_total" straggler_resyncs;
  ceq "pt_ranker_backpressure_pops_total" backpressure_pops;
  let {
    Core.Cag_engine.cags_started;
    cags_finished;
    send_merges;
    end_merges;
    receive_merges;
    partial_receives;
    unmatched_receives;
    thread_reuse_blocked;
    orphans;
    crossed_boundaries;
    mmap_entries;
    live_vertices;
    peak_live_vertices;
    evicted_sends;
  } =
    estats
  in
  ceq "pt_engine_cags_started_total" cags_started;
  ceq "pt_engine_send_merges_total" send_merges;
  ceq "pt_engine_end_merges_total" end_merges;
  ceq "pt_engine_receive_merges_total" receive_merges;
  ceq "pt_engine_partial_receives_total" partial_receives;
  ceq "pt_engine_unmatched_receives_total" unmatched_receives;
  ceq "pt_engine_thread_reuse_blocked_total" thread_reuse_blocked;
  ceq "pt_engine_orphans_total" orphans;
  ceq "pt_engine_crossed_boundaries_total" crossed_boundaries;
  geq "pt_engine_mmap_entries" mmap_entries;
  geq "pt_engine_live_vertices" live_vertices;
  geq "pt_engine_peak_live_vertices" peak_live_vertices;
  ceq "pt_engine_evicted_sends_total" evicted_sends;
  Alcotest.(check int) "pt_correlator_paths_total{state=finished}" cags_finished
    (counter_exn snap ~labels:[ ("state", "finished") ] "pt_correlator_paths_total");
  Alcotest.(check int) "pt_correlator_paths_total{state=deformed}"
    (cags_started - cags_finished)
    (counter_exn snap ~labels:[ ("state", "deformed") ] "pt_correlator_paths_total");
  (* One name per fact: commits are the ranker's candidates, finished
     CAGs are the finished paths. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is gone") true
        (not (List.exists (fun (f : R.family) -> f.R.name = name) snap)))
    [ "pt_correlator_commits_total"; "pt_engine_cags_finished_total" ]

(* The names an online run used to export beside the shared ones. *)
let check_no_online_twins snap =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is gone") true
        (not (List.exists (fun (f : R.family) -> f.R.name = name) snap)))
    [
      "pt_online_paths_total";
      "pt_online_quarantined_total";
      "pt_online_stragglers_evicted_total";
      "pt_online_straggler_resyncs_total";
      "pt_online_peak_memory_records";
    ]

let hand_built_config () =
  Core.Correlator.config
    ~transform:(Core.Transform.config ~entry_points:[ H.ep "10.0.1.1" 80 ] ())
    ()

let test_correlate_mirrors_stats () =
  let logs = H.logs_of_request () in
  let cfg = hand_built_config () in
  let reg = R.create () in
  let result = Core.Correlator.correlate ~telemetry:reg cfg logs in
  let snap = R.snapshot reg in
  check_mirrors snap result.Core.Correlator.ranker_stats
    result.Core.Correlator.engine_stats;
  let prepared =
    Core.Transform.apply_native (hand_built_config ()).Core.Correlator.transform
      (Trace.Arena.of_collection logs)
  in
  Alcotest.(check int) "pt_correlator_activities_total"
    (Trace.Arena.total prepared)
    (counter_exn snap "pt_correlator_activities_total");
  Alcotest.(check int) "pt_correlator_paths_total{state=finished}"
    (List.length result.Core.Correlator.cags)
    (counter_exn snap ~labels:[ ("state", "finished") ] "pt_correlator_paths_total");
  Alcotest.(check int) "pt_correlator_paths_total{state=deformed}"
    (List.length result.Core.Correlator.deformed)
    (counter_exn snap ~labels:[ ("state", "deformed") ] "pt_correlator_paths_total");
  match R.find_sample snap ~labels:[ ("stage", "rank_correlate") ] "pt_correlator_stage_seconds" with
  | Some (R.Hist { count; _ }) -> Alcotest.(check int) "one rank stage span" 1 count
  | _ -> Alcotest.fail "missing rank_correlate stage timing"

let test_offline_online_parity () =
  let outcome = S.run { S.default with S.clients = 30; time_scale = 0.02 } in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  (* Offline. *)
  let off = R.create () in
  let off_result = Core.Correlator.correlate ~telemetry:off cfg outcome.S.logs in
  (* Online replay of the timestamp-merged stream. *)
  let on = R.create () in
  let online =
    Online.create ~config:cfg ~telemetry:on
      ~hosts:(List.map Trace.Log.hostname outcome.S.logs)
      ()
  in
  Online.replay online (Trace.Arena.of_collection outcome.S.logs);
  Online.finish online;
  let off_snap = R.snapshot off and on_snap = R.snapshot on in
  (* Each registry mirrors its own run's legacy stats records... *)
  check_mirrors off_snap off_result.Core.Correlator.ranker_stats
    off_result.Core.Correlator.engine_stats;
  check_mirrors on_snap (Online.ranker_stats online) (Online.engine_stats online);
  (* ...and the two runs agree with each other. *)
  List.iter
    (fun name ->
      Alcotest.(check int)
        ("parity " ^ name)
        (counter_exn off_snap name) (counter_exn on_snap name))
    [
      "pt_ranker_fetched_total";
      "pt_ranker_candidates_total";
      "pt_engine_cags_started_total";
      "pt_engine_send_merges_total";
      "pt_engine_receive_merges_total";
    ];
  Alcotest.(check int) "online paths counter = offline cags"
    (List.length off_result.Core.Correlator.cags)
    (counter_exn on_snap ~labels:[ ("state", "finished") ] "pt_correlator_paths_total");
  check_no_online_twins on_snap;
  Alcotest.(check bool) "online peak memory exported" true
    (gauge_exn on_snap "pt_correlator_peak_memory_records" > 0.0);
  (* finish is idempotent: the stats mirror must not double-count. *)
  Online.finish online;
  let finished snap =
    counter_exn snap ~labels:[ ("state", "finished") ] "pt_correlator_paths_total"
  in
  Alcotest.(check int) "finish idempotent" (finished on_snap) (finished (R.snapshot on))

let test_degraded_online_mirrors_stats () =
  (* A host falls silent mid-run (a straggler eviction) and a host nobody
     traces feeds rows (quarantined): both leave the online run only as
     [pt_ranker_*] counters. *)
  let spec =
    {
      S.default with
      S.clients = 20;
      time_scale = 0.02;
      faults =
        [
          Tiersim.Faults.host_silence ~host:"app1"
            ~after:(ST.span_scale 0.02 (ST.ms 300_000));
        ];
    }
  in
  let outcome = S.run spec in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let reg = R.create () in
  let online =
    Online.create ~config:cfg ~telemetry:reg
      ~hosts:(List.map Trace.Log.hostname outcome.S.logs)
      ~straggler_timeout:(ST.ms 500) ()
  in
  Online.replay online (Trace.Arena.of_collection outcome.S.logs);
  let ghost = Trace.Arena.create ~host:"ghost" () in
  List.iter
    (fun ts ->
      Trace.Arena.append_activity ghost
        (H.act ~kind:Trace.Activity.Send ~ts
           ~ctx:{ H.web_ctx with Trace.Activity.host = "ghost" }
           ~flow:H.web_app_flow ~size:10))
    [ 1; 2; 3 ];
  Online.observe_arena online ghost;
  Online.finish online;
  let rstats = Online.ranker_stats online in
  Alcotest.(check bool) "a straggler was evicted" true (rstats.Core.Ranker.stragglers_evicted >= 1);
  Alcotest.(check int) "ghost rows quarantined" 3 (Core.Ranker.(List.assoc Unknown_host rstats.quarantined));
  let snap = R.snapshot reg in
  check_mirrors snap rstats (Online.engine_stats online);
  check_no_online_twins snap

let test_tiersim_metrics_over_histogram () =
  let m = Tiersim.Metrics.create () in
  List.iteri
    (fun i rt_ms ->
      Tiersim.Metrics.record m
        ~finished_at:(ST.of_ns ((i + 1) * 1_000_000_000))
        ~rt:(ST.ms rt_ms) ~kind:"Read")
    [ 10; 20; 30; 40; 100 ];
  let s = Tiersim.Metrics.summarize_kind m ~kind:"Read" in
  Alcotest.(check int) "completed" 5 s.Tiersim.Metrics.completed;
  feq_rel "mean (exact)" 0.040 s.Tiersim.Metrics.mean_rt_s;
  feq "max (exact)" 0.100 s.Tiersim.Metrics.max_rt_s;
  let rel name expected got =
    let r = abs_float (got -. expected) /. expected in
    if r > 0.05 then Alcotest.failf "%s: %g vs %g (rel %.3f)" name got expected r
  in
  rel "p50 (~4% bucket error)" 0.030 s.Tiersim.Metrics.p50_rt_s;
  rel "p99 (~4% bucket error)" 0.100 s.Tiersim.Metrics.p99_rt_s

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact stats" `Quick test_hist_exact_stats;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "quantile accuracy" `Quick test_hist_quantile_accuracy;
          Alcotest.test_case "buckets cumulative" `Quick test_hist_buckets_cumulative;
          Alcotest.test_case "nonpositive and nan" `Quick test_hist_nonpositive_and_nan;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "labels separate" `Quick test_registry_labels_separate;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "gauges" `Quick test_registry_gauges;
          Alcotest.test_case "timer span" `Quick test_registry_span;
          Alcotest.test_case "snapshot sorted" `Quick test_registry_snapshot_sorted;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
          Alcotest.test_case "json parses" `Quick test_json_export_parses;
          Alcotest.test_case "json roundtrip" `Quick test_json_parser_roundtrip;
          Alcotest.test_case "json errors" `Quick test_json_parser_errors;
          Alcotest.test_case "json field decoders" `Quick test_json_field_decoders;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "correlate mirrors stats" `Quick
            test_correlate_mirrors_stats;
          Alcotest.test_case "offline/online parity" `Quick
            test_offline_online_parity;
          Alcotest.test_case "degraded online feed mirrors stats" `Quick
            test_degraded_online_mirrors_stats;
          Alcotest.test_case "tiersim metrics" `Quick
            test_tiersim_metrics_over_histogram;
        ] );
    ]
