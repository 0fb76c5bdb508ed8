(* Tests for the domain-parallel machinery: the worker pool's determinism
   and failure behaviour, registry domain-safety under concurrent updates,
   the epoch cut planner, and the PR's acceptance property — sharded
   correlation is indistinguishable from serial in everything the
   pattern/report layer shows, at any [jobs]. *)

module Pool = Parallel.Pool
module R = Telemetry.Registry
module Shard = Core.Shard
module Correlator = Core.Correlator
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Topo = Mesh.Random_spec
module Sim_time = Simnet.Sim_time

(* ---- pool ---- *)

let test_pool_map_ordered () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  Alcotest.(check int) "size" 4 (Pool.size p);
  let out = Pool.map p ~n:257 (fun i -> i * i) in
  Alcotest.(check int) "length" 257 (Array.length out);
  Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v) out

let test_pool_jobs_one_inline () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  Alcotest.(check int) "size clamped to 1" 1 (Pool.size p);
  let out = Pool.map p ~n:10 (fun i -> 2 * i) in
  Array.iteri (fun i v -> Alcotest.(check int) "inline slot" (2 * i) v) out

let test_pool_exception_propagates () =
  match Pool.with_pool ~jobs:4 (fun p -> Pool.run p ~n:8 (fun i -> if i = 5 then failwith "task 5")) with
  | () -> Alcotest.fail "task exception swallowed"
  | exception Failure m -> Alcotest.(check string) "original exception" "task 5" m

let test_pool_reentrant_runs_inline () =
  Pool.with_pool ~jobs:2 @@ fun p ->
  (* A task mapping over its own pool must not deadlock: the inner map
     falls back to inline execution, still in index order. *)
  let out =
    Pool.map p ~n:4 (fun i ->
        Array.fold_left ( + ) 0 (Pool.map p ~n:5 (fun j -> (i * 10) + j)))
  in
  Array.iteri (fun i v -> Alcotest.(check int) "nested sum" ((i * 50) + 10) v) out

let test_default_jobs_env () =
  let old = Sys.getenv_opt "PT_JOBS" in
  let restore () = Unix.putenv "PT_JOBS" (Option.value old ~default:"") in
  Fun.protect ~finally:restore @@ fun () ->
  Unix.putenv "PT_JOBS" "3";
  Alcotest.(check int) "PT_JOBS=3" 3 (Pool.default_jobs ());
  Unix.putenv "PT_JOBS" "200";
  Alcotest.(check int) "clamped to 64" 64 (Pool.default_jobs ());
  (* Anything but a positive integer means one domain, never the host's
     domain count. *)
  List.iter
    (fun v ->
      Unix.putenv "PT_JOBS" v;
      Alcotest.(check int) (Printf.sprintf "PT_JOBS=%S is one domain" v) 1 (Pool.default_jobs ()))
    [ ""; "0"; "many" ]

(* ---- registry domain-safety ---- *)

let counter_total snap name =
  match R.find_sample snap name with
  | Some (R.Counter n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> 0

let test_counter_concurrent_exact () =
  let reg = R.create () in
  let c = R.counter reg "t_hammer_total" in
  Pool.with_pool ~jobs:4 (fun p ->
      Pool.run p ~n:4 (fun _ ->
          for _ = 1 to 10_000 do
            R.incr c
          done));
  Alcotest.(check int) "no lost increments" 40_000 (R.counter_value c)

let test_histogram_concurrent_exact () =
  let reg = R.create () in
  let h = R.histogram reg "t_hist_seconds" in
  Pool.with_pool ~jobs:4 (fun p ->
      Pool.run p ~n:4 (fun d ->
          for i = 1 to 1_000 do
            R.observe h (float_of_int ((d * 1_000) + i))
          done));
  match R.find_sample (R.snapshot reg) "t_hist_seconds" with
  | Some (R.Hist { count; max_v; _ }) ->
      Alcotest.(check int) "no lost observations" 4_000 count;
      Alcotest.(check (float 0.0)) "max observed" 4_000.0 max_v
  | Some _ | None -> Alcotest.fail "histogram sample missing"

let test_gauge_set_max_concurrent () =
  let reg = R.create () in
  let g = R.gauge reg "t_peak" in
  Pool.with_pool ~jobs:4 (fun p ->
      Pool.run p ~n:64 (fun i -> R.set_max g (float_of_int i)));
  Alcotest.(check (float 0.0)) "high-water mark survives races" 63.0 (R.gauge_value g)

(* ---- epoch planner ---- *)

(* Run a random topology and hand back its correlator config + raw logs.
   Skews stay small so the merged feed has genuine quiescent instants;
   skew larger than the inter-request gaps collapses the plan to one
   epoch (covered separately below). *)
let build_case spec =
  let b = Topo.build spec in
  Simnet.Engine.run b.Topo.engine;
  let transform = Core.Transform.config ~entry_points:[ b.Topo.entry ] () in
  let cfg = Correlator.config ~transform ~window:(Sim_time.ms 5) () in
  (cfg, Trace.Probe.logs b.Topo.probe)

let quiet_spec = { Topo.default_spec with Topo.max_skew = Sim_time.ms 1 }

let test_plan_multi_epoch_cover () =
  let cfg, logs = build_case quiet_spec in
  let plan = Shard.plan ~jobs:4 cfg (Trace.Arena.of_collection logs) in
  Alcotest.(check bool)
    (Printf.sprintf "%d cut candidates" (Shard.cut_candidates plan))
    true
    (Shard.cut_candidates plan > 0);
  let ranges = Shard.epoch_ranges plan in
  Alcotest.(check bool)
    (Printf.sprintf "%d epochs" (Array.length ranges))
    true
    (Array.length ranges >= 2);
  let lo0, _ = ranges.(0) in
  Alcotest.(check int) "covers from index 0" 0 lo0;
  Array.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool) "non-empty epoch" true (lo < hi);
      if i > 0 then begin
        let _, prev_hi = ranges.(i - 1) in
        Alcotest.(check int) "contiguous with predecessor" prev_hi lo
      end)
    ranges

let test_plan_degrades_to_one_epoch () =
  (* A window longer than the whole run leaves no gap wide enough to cut
     at: the planner must degrade to a single epoch, and sharded
     correlation (serial fallback) must still match serial output
     exactly. *)
  let cfg, logs = build_case quiet_spec in
  let cfg = { cfg with Correlator.window = Sim_time.ms 60_000 } in
  let plan = Shard.plan ~jobs:4 cfg (Trace.Arena.of_collection logs) in
  Alcotest.(check int) "single epoch" 1 (Array.length (Shard.epoch_ranges plan));
  let serial = Correlator.correlate ~telemetry:(R.create ()) cfg logs in
  let sharded =
    Shard.correlate_arena ~telemetry:(R.create ()) ~jobs:4 cfg (Trace.Arena.of_collection logs)
  in
  Alcotest.(check string) "fallback identical" (Shard.digest serial) (Shard.digest sharded)

(* ---- sharded = serial ---- *)

(* Counters whose totals must be identical between the serial pipeline and
   the merged per-epoch runs: they count feed records and output structure,
   both of which the epoch cuts partition exactly. Deliberately absent:
   pt_engine_thread_reuse_blocked_total (serial carries cmap entries across
   epoch boundaries — documented in shard.mli), pt_engine_evicted_sends_total
   (GC cadence), forced fetch/discard counts (a per-epoch ranker drains its
   tail by forcing where serial's watermark advances normally), and every
   gauge/peak (per-domain maxima). *)
let invariant_counters =
  [
    "pt_correlator_activities_total";
    "pt_correlator_paths_total";
    "pt_ranker_fetched_total";
    "pt_ranker_candidates_total";
    "pt_ranker_noise_discarded_total";
    "pt_engine_cags_started_total";
    "pt_engine_send_merges_total";
    "pt_engine_end_merges_total";
    "pt_engine_receive_merges_total";
    "pt_engine_orphans_total";
  ]

let pattern_populations result =
  Pattern.classify result.Correlator.cags
  |> List.map (fun p -> (p.Pattern.name, Pattern.count p))

let pattern_breakdowns result =
  Pattern.classify result.Correlator.cags
  |> List.map (fun p ->
         Core.Analysis.shares (Aggregate.of_pattern p)
         |> List.map (fun ((comp : Core.Latency.component), share) ->
                Printf.sprintf "%s>%s=%.9f" comp.Core.Latency.src comp.Core.Latency.dst share))

let check_shard_equals_serial ~jobs_list spec =
  let cfg, logs = build_case spec in
  let reg_s = R.create () in
  let serial = Correlator.correlate ~telemetry:reg_s cfg logs in
  let snap_s = R.snapshot reg_s in
  let tag fmt = Printf.sprintf ("seed %d: " ^^ fmt) spec.Topo.seed in
  List.iter
    (fun jobs ->
      let reg_p = R.create () in
      let sharded =
        Shard.correlate_arena ~telemetry:reg_p ~jobs cfg (Trace.Arena.of_collection logs)
      in
      Alcotest.(check string)
        (tag "digest at jobs=%d" jobs)
        (Shard.digest serial) (Shard.digest sharded);
      Alcotest.(check (list (pair string int)))
        (tag "pattern populations at jobs=%d" jobs)
        (pattern_populations serial) (pattern_populations sharded);
      Alcotest.(check (list (list string)))
        (tag "per-pattern breakdowns at jobs=%d" jobs)
        (pattern_breakdowns serial) (pattern_breakdowns sharded);
      let snap_p = R.snapshot reg_p in
      List.iter
        (fun name ->
          Alcotest.(check int)
            (tag "%s at jobs=%d" name jobs)
            (counter_total snap_s name) (counter_total snap_p name))
        invariant_counters)
    jobs_list

let test_sharded_equals_serial () =
  check_shard_equals_serial ~jobs_list:[ 1; 2; 4 ] quiet_spec

let test_sharded_equals_serial_skewed () =
  (* Heavy skew shuffles the merged feed and starves the planner of cuts;
     whatever plan emerges, the output must not change. *)
  check_shard_equals_serial ~jobs_list:[ 4 ]
    { Topo.default_spec with Topo.max_skew = Sim_time.ms 50; seed = 5 }

let prop_sharded_equals_serial =
  QCheck.Test.make ~name:"random topologies: sharded = serial at jobs 2 and 4" ~count:4
    QCheck.(triple (int_range 1 500) (int_range 2 4) QCheck.bool)
    (fun (seed, tiers, small_chunks) ->
      let spec =
        {
          quiet_spec with
          Topo.seed;
          tiers;
          chunk = (if small_chunks then 700 else 4096);
        }
      in
      check_shard_equals_serial ~jobs_list:[ 2; 4 ] spec;
      true)

(* ---- percentile robustness (satellite) ---- *)

let test_percentile_drops_non_finite () =
  let arr =
    Aggregate.sorted_finite
      [ 2.0; Float.nan; 1.0; Float.infinity; 3.0; Float.neg_infinity ]
  in
  Alcotest.(check int) "non-finite dropped" 3 (Array.length arr);
  (* Before the fix, NaN sorted last and became the p99/max. *)
  Alcotest.(check (float 0.0)) "p99 is a real sample" 3.0 (Aggregate.percentile arr 0.99);
  Alcotest.(check (float 0.0)) "p50" 2.0 (Aggregate.percentile arr 0.5);
  Alcotest.(check (float 0.0)) "p0" 1.0 (Aggregate.percentile arr 0.0)

let test_percentile_degenerate_inputs () =
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "n=1 at p=%.2f" p)
        5.0
        (Aggregate.percentile [| 5.0 |] p))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "empty is 0" 0.0 (Aggregate.percentile [||] 0.99)

(* The sort behind sorted_finite against the library sort, on runs long
   enough to merge and with repeated values. *)
let prop_sorted_finite_sorts =
  QCheck.Test.make ~name:"sorted_finite = finite samples under Array.sort" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (oneof [ float; map float_of_int (int_range (-5) 5) ]))
    (fun samples ->
      let expected = Array.of_list (List.filter Float.is_finite samples) in
      Array.sort Float.compare expected;
      Aggregate.sorted_finite samples = expected)

(* ---- share clamping (satellite) ---- *)

let share_flags reg = counter_total (R.snapshot reg) "pt_latency_share_out_of_range_total"

let test_clamp_share_counts_out_of_range () =
  let reg = R.create () in
  Alcotest.(check (float 0.0)) "in range untouched" 0.4 (Core.Report.clamp_share ~telemetry:reg 0.4);
  Alcotest.(check int) "no flag yet" 0 (share_flags reg);
  Alcotest.(check (float 0.0)) "over clamps to 1" 1.0 (Core.Report.clamp_share ~telemetry:reg 1.5);
  Alcotest.(check (float 0.0)) "under clamps to 0" 0.0
    (Core.Report.clamp_share ~telemetry:reg (-0.2));
  Alcotest.(check (float 0.0)) "nan renders as 0" 0.0
    (Core.Report.clamp_share ~telemetry:reg Float.nan);
  Alcotest.(check int) "each clamp counted" 3 (share_flags reg);
  Alcotest.(check (float 0.0)) "0 is in range" 0.0 (Core.Report.clamp_share ~telemetry:reg 0.0);
  Alcotest.(check (float 0.0)) "1 is in range" 1.0 (Core.Report.clamp_share ~telemetry:reg 1.0);
  Alcotest.(check int) "bounds not flagged" 3 (share_flags reg)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map is index-ordered" `Quick test_pool_map_ordered;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_pool_jobs_one_inline;
          Alcotest.test_case "task exception re-raised" `Quick test_pool_exception_propagates;
          Alcotest.test_case "re-entrant calls run inline" `Quick test_pool_reentrant_runs_inline;
          Alcotest.test_case "PT_JOBS honoured and clamped" `Quick test_default_jobs_env;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter exact across domains" `Quick test_counter_concurrent_exact;
          Alcotest.test_case "histogram exact across domains" `Quick
            test_histogram_concurrent_exact;
          Alcotest.test_case "gauge set_max across domains" `Quick test_gauge_set_max_concurrent;
        ] );
      ( "planner",
        [
          Alcotest.test_case "multi-epoch contiguous cover" `Quick test_plan_multi_epoch_cover;
          Alcotest.test_case "degrades to one epoch" `Quick test_plan_degrades_to_one_epoch;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "sharded = serial (jobs 1/2/4)" `Quick test_sharded_equals_serial;
          Alcotest.test_case "sharded = serial under heavy skew" `Quick
            test_sharded_equals_serial_skewed;
          QCheck_alcotest.to_alcotest prop_sharded_equals_serial;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "non-finite samples dropped" `Quick test_percentile_drops_non_finite;
          Alcotest.test_case "degenerate inputs" `Quick test_percentile_degenerate_inputs;
          QCheck_alcotest.to_alcotest prop_sorted_finite_sorts;
        ] );
      ( "report",
        [
          Alcotest.test_case "clamp_share flags out-of-range" `Quick
            test_clamp_share_counts_out_of_range;
        ] );
    ]
