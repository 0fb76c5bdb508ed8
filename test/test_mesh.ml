(* End-to-end tests for the declarative mesh subsystem: the adversarial
   scenario presets must correlate at paper-grade accuracy (serial and
   sharded byte-identically) while actually exhibiting their advertised
   pattern mix — retried duplicate flows, cache hit/miss branching, a hot
   partition, a slow canary, a synchronized herd — and the accuracy
   property must hold at exactly 1.0 over random DAG topologies with
   concurrent fan-out and cache branching, not just sequential trees. *)

module P = Mesh.Presets
module Spec = Mesh.Spec
module Runtime = Mesh.Runtime
module ST = Simnet.Sim_time
module GT = Trace.Ground_truth

let qtest = QCheck_alcotest.to_alcotest
let run name = P.run name

(* The preset's traces, simulated again from the same seed and correlated
   on two shards: the digest {!P.run} reports for its serial correlation.
   [random] is the call tree {!P.run} builds for it. *)
let sharded_digest (r : P.report) =
  let entries, logs =
    match P.spec_of ~seed:r.P.seed r.P.preset with
    | Some spec ->
        let b = Runtime.build spec in
        Simnet.Engine.run b.Runtime.engine;
        (b.Runtime.entries, Trace.Probe.logs b.Runtime.probe)
    | None ->
        let module R = Mesh.Random_spec in
        let b = R.build { R.default_spec with R.seed = r.P.seed; clients = 6; tiers = 4 } in
        Simnet.Engine.run b.R.engine;
        ([ b.R.entry ], Trace.Probe.logs b.R.probe)
  in
  let transform = Core.Transform.config ~entry_points:entries () in
  let cfg = Core.Correlator.config ~transform ~window:(ST.ms 5) () in
  Core.Shard.digest (Core.Shard.correlate_arena ~jobs:2 cfg (Trace.Arena.of_collection logs))

(* Every preset reads 1.0 in the committed BENCH_mesh.json; the default
   floor allows 0.02 below it. *)
let check_quality ?(floor = 0.98) (r : P.report) =
  if r.P.accuracy < floor then
    Alcotest.failf "%s: accuracy %.4f below %.2f (%d/%d, fp %d, fn %d)" r.preset
      r.accuracy floor r.correct r.total_requests r.false_positives
      r.false_negatives;
  Alcotest.(check string) (r.preset ^ ": serial == sharded") r.digest (sharded_digest r)

let test_control () =
  let r = run "control" in
  check_quality ~floor:1.0 r;
  Alcotest.(check int) "faultless control: no false positives" 0 r.false_positives;
  Alcotest.(check int) "no retries without faults" 0 r.retries;
  Alcotest.(check bool) "cache hits seen" true (r.cache_hits > 0);
  Alcotest.(check bool) "cache misses seen" true (r.cache_misses > 0);
  Alcotest.(check bool) "async jobs acked" true (r.async_jobs > 0);
  Alcotest.(check bool) "hit/miss paths give several patterns" true (r.patterns >= 2)

let test_cascading_failure () =
  let r = run "cascading_failure" in
  check_quality r;
  Alcotest.(check bool) "timeouts fired retries" true (r.retries > 0);
  (* A retried duplicate flow lands a second visit on the same host
     (fresh connection, fresh context) inside one correlated path. *)
  let spec = Option.get (P.spec_of ~seed:P.default_seed "cascading_failure") in
  let _, s = Runtime.run spec in
  let has_duplicate_host cag =
    let visits = Core.Accuracy.visits_of_cag cag in
    let hosts = List.map (fun (v : GT.visit) -> v.context.Trace.Activity.host) visits in
    List.length hosts > List.length (List.sort_uniq compare hosts)
  in
  Alcotest.(check bool) "some path carries a retried duplicate flow" true
    (List.exists has_duplicate_host s.Runtime.result.Core.Correlator.cags)

let test_hotspot_key () =
  let r = run "hotspot_key" in
  check_quality r;
  Alcotest.(check bool) "skew forces misses past hits" true
    (r.cache_misses > r.cache_hits);
  let served h = try List.assoc h r.served with Not_found -> 0 in
  (* hot key 93 -> partition 93 mod 2 = 1 -> host db2. *)
  Alcotest.(check bool) "db2 is the hot partition" true
    (served "db2" > 2 * served "db1")

let test_canary_slow_version () =
  let r = run "canary_slow_version" in
  check_quality r;
  let served h = try List.assoc h r.served with Not_found -> 0 in
  Alcotest.(check bool) "round-robin reaches every api replica" true
    (served "api1" > 0 && served "api2" > 0 && served "api3" > 0);
  (* The canary (api replica 2 = host api3) runs 6x slow: its oracle
     visit durations must dominate a healthy replica's. *)
  let spec = Option.get (P.spec_of ~seed:P.default_seed "canary_slow_version") in
  let b, _ = Runtime.run spec in
  let mean_visit host =
    let tot = ref 0.0 and n = ref 0 in
    List.iter
      (fun (req : GT.request) ->
        List.iter
          (fun (v : GT.visit) ->
            if String.equal v.context.Trace.Activity.host host then begin
              tot := !tot +. ST.span_to_float_s (ST.diff v.end_ts v.begin_ts);
              incr n
            end)
          req.visits)
      (GT.requests b.Runtime.gt);
    if !n = 0 then 0.0 else !tot /. float_of_int !n
  in
  let healthy = mean_visit "api1" and canary = mean_visit "api3" in
  if not (canary > 2.0 *. healthy) then
    Alcotest.failf "canary not visibly slow: api3 mean %.6fs vs api1 mean %.6fs"
      canary healthy

let test_thundering_herd () =
  let r = run "thundering_herd" in
  check_quality r;
  let spec = Option.get (P.spec_of ~seed:P.default_seed "thundering_herd") in
  Alcotest.(check bool) "every request's job reaches the worker" true
    (r.async_jobs >= spec.Spec.clients * spec.Spec.requests_per_client);
  let b, _ = Runtime.run spec in
  (* Every client fires at the same instant: the first wave's entry
     visits all begin within a few milliseconds of each other. *)
  let begins =
    List.filter_map
      (fun (req : GT.request) ->
        match req.GT.visits with [] -> None | v :: _ -> Some v.GT.begin_ts)
      (GT.requests b.Runtime.gt)
    |> List.sort ST.compare
  in
  let wave = List.filteri (fun i _ -> i < spec.Spec.clients) begins in
  match (wave, List.rev wave) with
  | first :: _, last :: _ ->
      let spread_ms = ST.span_to_float_s (ST.diff last first) *. 1e3 in
      if spread_ms > 10.0 then
        Alcotest.failf "herd not synchronized: first-wave spread %.2f ms" spread_ms
  | _ -> Alcotest.fail "no requests recorded"

let test_random_presets_perfect () =
  List.iter
    (fun name ->
      let r = run name in
      check_quality ~floor:1.0 r;
      Alcotest.(check int) (name ^ ": no false positives") 0 r.false_positives)
    [ "random"; "random_mesh" ]

(* ---- spec validation ---- *)

let mini ~tiers =
  {
    Spec.name = "mini";
    entry = "gw";
    tiers;
    clients = 1;
    requests_per_client = 1;
    think_mean = ST.ms 1;
    sync_start = false;
    keys = 100;
    request_size = 64;
    chunk = 4096;
    faults = [];
    seed = 1;
  }

let rejects what spec =
  match Spec.validate spec with
  | () -> Alcotest.failf "%s: validation should have failed" what
  | exception Invalid_argument _ -> ()

let test_validation () =
  rejects "cycle"
    (mini
       ~tiers:
         [
           Spec.tier "gw" ~calls:[ Spec.group [ "a" ] ];
           Spec.tier "a" ~calls:[ Spec.group [ "b" ] ];
           Spec.tier "b" ~calls:[ Spec.group [ "a" ] ];
         ]);
  rejects "call to entry"
    (mini
       ~tiers:
         [
           Spec.tier "gw" ~calls:[ Spec.group [ "a" ] ];
           Spec.tier "a" ~calls:[ Spec.group [ "gw" ] ];
         ]);
  rejects "self call" (mini ~tiers:[ Spec.tier "gw" ~calls:[ Spec.group [ "gw" ] ] ]);
  rejects "undeclared target"
    (mini ~tiers:[ Spec.tier "gw" ~calls:[ Spec.group [ "x" ] ] ]);
  rejects "cache with calls"
    (mini
       ~tiers:
         [
           Spec.tier "gw" ~calls:[ Spec.group [ "c" ] ];
           Spec.tier "c"
             ~role:(Spec.Cache { hit_ratio = 0.5; backing = "d"; backing_retry = None })
             ~calls:[ Spec.group [ "d" ] ];
           Spec.tier "d";
         ]);
  (* the reference preset itself must validate *)
  Spec.validate (Option.get (P.spec_of ~seed:1 "control"))

let test_verdict_expectations () =
  let module V = Diagnose.Verdict in
  let module A = Core.Analysis in
  let accepts fault subject =
    match V.expectation_of fault with
    | None -> false
    | Some e -> e.V.accepts subject
  in
  let f = Tiersim.Faults.tier_slow ~tier:"db" ~factor:10.0 in
  Alcotest.(check bool) "tier_slow names its tier" true (accepts f (A.Tier "db"));
  Alcotest.(check bool) "tier_slow rejects others" false (accepts f (A.Tier "api"));
  let f = Tiersim.Faults.replica_slow ~tier:"api" ~replica:2 ~factor:6.0 in
  Alcotest.(check bool) "replica_slow names its tier" true (accepts f (A.Tier "api"));
  let f = Tiersim.Faults.key_skew ~tier:"db" ~hot_key:93 ~share:0.8 in
  Alcotest.(check bool) "key_skew names the partitioned tier" true
    (accepts f (A.Tier "db"));
  Alcotest.(check bool) "key_skew accepts interactions into it" true
    (accepts f (A.Interaction { src = "cache"; dst = "db" }))

let test_shared_naming () =
  (* One allocation scheme: the cluster presets and the mesh agree on
     replica-suffix hostnames through Tiersim.Naming. *)
  Alcotest.(check (list string))
    "cluster hostnames" [ "web1"; "app1"; "db1" ]
    (Tiersim.Service.replica_server_hostnames ~replica:0);
  Alcotest.(check string) "mesh replica host" "api3"
    (Tiersim.Naming.replica_host ~tier:"api" ~index:2);
  let b = Runtime.build (Option.get (P.spec_of ~seed:1 "control")) in
  Alcotest.(check bool) "mesh hosts use the shared scheme" true
    (List.mem "api3" b.Runtime.hostnames && List.mem "db2" b.Runtime.hostnames)

(* ---- properties ---- *)

let prop_random_meshes_perfect =
  QCheck.Test.make
    ~name:"100% accuracy on random DAGs with concurrency and caches" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let spec = Spec.random ~seed () in
      (* the generator must actually produce the stress patterns *)
      let has_concurrent =
        List.exists
          (fun (t : Spec.tier) ->
            List.exists
              (fun (g : Spec.call_group) ->
                g.mode = Spec.Concurrent && List.length g.targets >= 2)
              t.calls)
          spec.Spec.tiers
      in
      let _, s = Runtime.run spec in
      has_concurrent
      && s.Runtime.verdict.Core.Accuracy.accuracy = 1.0
      && s.verdict.false_positives = 0
      && s.result.Core.Correlator.deformed = [])

let prop_presets_hold_across_seeds =
  QCheck.Test.make ~name:"presets stay above the gate floor at any seed" ~count:4
    QCheck.(int_range 1 10_000)
    (fun seed ->
      List.for_all
        (fun name ->
          let r = P.run ~seed name in
          r.P.accuracy >= 0.95 && String.equal r.P.digest (sharded_digest r))
        [ "cascading_failure"; "hotspot_key"; "canary_slow_version" ])

let () =
  Alcotest.run "mesh"
    [
      ( "presets",
        [
          Alcotest.test_case "control: perfect and clean" `Quick test_control;
          Alcotest.test_case "cascading failure: retry storms" `Quick
            test_cascading_failure;
          Alcotest.test_case "hotspot key: one partition hammered" `Quick
            test_hotspot_key;
          Alcotest.test_case "canary: one slow replica behind the lb" `Quick
            test_canary_slow_version;
          Alcotest.test_case "thundering herd: synchronized burst" `Quick
            test_thundering_herd;
          Alcotest.test_case "random presets correlate perfectly" `Quick
            test_random_presets_perfect;
        ] );
      ( "spec",
        [
          Alcotest.test_case "validation rejects bad graphs" `Quick test_validation;
          Alcotest.test_case "verdict expectations for mesh faults" `Quick
            test_verdict_expectations;
          Alcotest.test_case "shared naming scheme" `Quick test_shared_naming;
        ] );
      ( "properties",
        [ qtest prop_random_meshes_perfect; qtest prop_presets_hold_across_seeds ] );
    ]
