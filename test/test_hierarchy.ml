(* Tests for the hierarchical scale-out correlation tree: the
   agent-local partial-correlation pass, the PTP1 shard-to-root message,
   the canonical root splice, the collector's horizon-jump replay fix,
   determinism fixes in the detector and skew estimator, the closed-loop
   cluster where no component sees the full feed yet the root's digest
   is byte-identical to a monolithic correlator over the intact logs,
   and an agent crash under the tree. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Frame = Collect.Frame
module Wire = Collect.Wire
module Collector = Collect.Collector
module Plane = Collect.Hierarchy
module Scenario = Tiersim.Scenario
module Service = Tiersim.Service
module Engine = Simnet.Engine
module Node = Simnet.Node
module Tcp = Simnet.Tcp
module Address = Simnet.Address
module ST = Simnet.Sim_time
module R = Telemetry.Registry

let qtest = QCheck_alcotest.to_alcotest

(* ---- a small monolithic run to feed the codec/splice tests ---- *)

let small_outcome =
  lazy
    (Scenario.run
       { Scenario.default with Scenario.clients = 25; time_scale = 0.02; seed = 11 })

let small_result =
  lazy
    (let o = Lazy.force small_outcome in
     Core.Correlator.correlate
       (Core.Correlator.config ~transform:o.Scenario.transform ())
       o.Scenario.logs)

(* ---- the shard-to-root message: a PTP1 path table with no links ---- *)

let test_ptp1_roundtrip () =
  let r = Lazy.force small_result in
  let all = r.Core.Correlator.cags @ r.Core.Correlator.deformed in
  Alcotest.(check bool) "run produced paths" true (List.length r.Core.Correlator.cags > 50);
  let message =
    (Bundle.Codec.encode ~link_hosts:[||] all).Bundle.Codec.bytes
  in
  let decoded =
    match Bundle.Codec.decode message ~pos:0 ~len:(String.length message) with
    | Ok d -> List.map (fun p -> p.Bundle.Codec.cag) d.Bundle.Codec.paths
    | Error e -> Alcotest.failf "PTP1 decode failed: %s" e
  in
  Alcotest.(check int) "path count survives" (List.length all) (List.length decoded);
  List.iter
    (fun c ->
      match Core.Cag.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "decoded CAG invalid: %s" e)
    decoded;
  let fin, dfm = List.partition Core.Cag.is_finished decoded in
  Alcotest.(check string) "digest survives the wire"
    (Core.Hierarchy.digest_result r)
    (Core.Hierarchy.digest ~finished:fin ~deformed:dfm)

(* ---- canonical splice: hierarchical = monolithic at any shard count ---- *)

let prop_splice_invariance =
  (* Scatter the monolithic result's paths over k shards any way at all;
     the canonical splice must reproduce the monolithic digest. *)
  let arb =
    QCheck.make
      ~print:(fun (k, salt) -> Printf.sprintf "shards=%d salt=%d" k salt)
      QCheck.Gen.(pair (int_range 1 16) (int_range 0 1_000_000))
  in
  QCheck.Test.make ~name:"splice is shard-count invariant" ~count:30 arb
    (fun (k, salt) ->
      let r = Lazy.force small_result in
      let buckets = Array.make k [] in
      List.iteri
        (fun i c -> buckets.(abs (i + salt) mod k) <- c :: buckets.(abs (i + salt) mod k))
        r.Core.Correlator.cags;
      let spliced = Core.Hierarchy.splice (Array.to_list buckets) in
      let deformed = r.Core.Correlator.deformed in
      String.equal
        (Core.Hierarchy.digest ~finished:spliced ~deformed)
        (Core.Hierarchy.digest_result r))

(* ---- agent-local partial correlation: identity on the reduced feed ---- *)

let test_partial_identity () =
  let o = Lazy.force small_outcome in
  let cfg = Core.Correlator.config ~transform:o.Scenario.transform () in
  let arenas = Trace.Arena.of_collection o.Scenario.logs in
  let p = Core.Partial.create o.Scenario.transform in
  let reduced = List.map (Core.Partial.reduce p) arenas in
  let coalesced =
    List.fold_left (fun acc (r : Core.Partial.result) -> acc + r.Core.Partial.rows_coalesced)
      0 reduced
  in
  Alcotest.(check bool) "coalescing happened" true (coalesced > 0);
  let raw = Core.Correlator.correlate_arena cfg arenas in
  let red =
    Core.Correlator.correlate_arena cfg (List.map (fun r -> r.Core.Partial.arena) reduced)
  in
  Alcotest.(check string) "reduced feed correlates identically"
    (Core.Hierarchy.digest_result raw)
    (Core.Hierarchy.digest_result red);
  (* the reduction is real *)
  let rows l = List.fold_left (fun acc a -> acc + Trace.Arena.length a) 0 l in
  Alcotest.(check bool) "fewer rows after reduction" true
    (rows (List.map (fun (r : Core.Partial.result) -> r.Core.Partial.arena) reduced)
    < rows arenas)

(* ---- collector: horizon-jump replay (the PR 9 bugfix) ---- *)

let test_collector_horizon_jump_replays_pending () =
  (* Frames 2 and 3 arrive out of order while seq 1 is missing; then a
     frame with oldest=4 announces that seq 1 was evicted at the agent.
     The fix: stashed frames 2 and 3 below the new horizon are real
     deliveries and must be replayed in seq order — only seq 1 is a
     permanent loss. *)
  let engine = Engine.create () in
  let stack = Tcp.create_stack ~engine in
  let wire = Wire.create stack in
  let cnode =
    Node.create ~engine ~hostname:"collect1" ~ip:(Address.ip_of_string "10.0.0.9")
      ~cores:2 ()
  in
  let anode =
    Node.create ~engine ~hostname:"web1" ~ip:(Address.ip_of_string "10.0.0.1") ~cores:2 ()
  in
  let sink = ref [] in
  let reg = R.create () in
  let collector =
    Collector.create ~telemetry:reg
      ~on_arena:(fun arena ->
        for i = 0 to Trace.Arena.length arena - 1 do
          sink := Trace.Arena.get arena i :: !sink
        done)
      ~wire ~node:cnode ~port:7441 ()
  in
  let frame ~seq ~oldest i =
    let payload =
      let row = Trace.Arena.create ~host:"web1" () in
      Trace.Arena.append_activity row
        (H.act ~kind:Activity.Send ~ts:(1_000_000 * (i + 1))
           ~ctx:(H.ctx ~host:"web1" ()) ~flow:H.web_app_flow ~size:(100 + i));
      Frame.encode_payload_arena row
    in
    Frame.encode ~seq ~oldest ~host:"web1" ~watermark:(ST.of_ns (1_000_000 * (i + 1)))
      ~payload
  in
  let stream =
    String.concat ""
      [
        frame ~seq:0 ~oldest:0 0;
        frame ~seq:2 ~oldest:0 2;
        frame ~seq:3 ~oldest:0 3;
        frame ~seq:4 ~oldest:4 4;
      ]
  in
  let proc = Node.spawn anode ~program:"fakeagent" in
  Tcp.connect stack ~node:anode ~proc ~dst:(Collector.endpoint collector)
    ~k:(fun sock -> Wire.send wire sock ~proc stream ~k:(fun () -> ()));
  Engine.run engine;
  (match Collector.stats collector with
  | [ ("web1", hs) ] ->
      Alcotest.(check int) "stashed frames replayed, not leaked" 4
        hs.Collector.delivered_frames;
      Alcotest.(check int) "only the evicted seq is skipped" 1
        hs.Collector.skipped_frames;
      Alcotest.(check int) "no duplicates" 0 hs.Collector.duplicate_frames;
      Alcotest.(check int) "horizon advanced past the batch" 5 hs.Collector.next_seq;
      (* accounting invariant: every sent seq is delivered, duplicate or
         skipped — nothing residual below the horizon *)
      Alcotest.(check int) "delivered + duplicates + skipped = seqs"
        hs.Collector.next_seq
        (hs.Collector.delivered_frames + hs.Collector.duplicate_frames
       + hs.Collector.skipped_frames)
  | other -> Alcotest.failf "unexpected host stats (%d hosts)" (List.length other));
  (* the replayed frames arrive in seq order: record sizes 100,102,103,104 *)
  let sizes =
    List.rev_map (fun (a : Activity.t) -> a.Activity.message.Activity.size) !sink
  in
  Alcotest.(check (list int)) "delivery order is seq order" [ 100; 102; 103; 104 ] sizes

(* ---- determinism: detector's multi-new-pattern tick ---- *)

(* One correlated three-tier request ending at [base + 9ms] (the
   baseline pattern), and a two-tier variant whose renamed app program
   makes a signature the baseline has never seen. *)
let mk_three_tier ~base () =
  let engine, _ = H.correlate_raw (H.logs_of_request ~base ()) in
  List.hd (Core.Cag_engine.finished engine)

let mk_novel ~program ~base () =
  let app_ctx = H.ctx ~host:"app" ~program ~pid:20 ~tid:21 () in
  let w =
    [
      H.act ~kind:Activity.Begin ~ts:base ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:400;
      H.act ~kind:Activity.Send ~ts:(base + 1_000_000) ~ctx:H.web_ctx ~flow:H.web_app_flow
        ~size:500;
      H.act ~kind:Activity.Receive ~ts:(base + 4_000_000) ~ctx:H.web_ctx
        ~flow:H.app_web_flow ~size:900;
      H.act ~kind:Activity.End_ ~ts:(base + 5_000_000) ~ctx:H.web_ctx
        ~flow:H.web_client_flow ~size:1000;
    ]
  in
  let a =
    [
      H.act ~kind:Activity.Receive ~ts:(base + 2_000_000) ~ctx:app_ctx ~flow:H.web_app_flow
        ~size:500;
      H.act ~kind:Activity.Send ~ts:(base + 3_000_000) ~ctx:app_ctx ~flow:H.app_web_flow
        ~size:900;
    ]
  in
  let logs =
    [ Trace.Log.of_list ~hostname:"web" w; Trace.Log.of_list ~hostname:"app" a ]
  in
  let engine, _ = H.correlate_raw logs in
  List.hd (Core.Cag_engine.finished engine)

let test_detector_new_patterns_sorted () =
  (* Two novel patterns cross the mix threshold in the SAME check (the
     first one after the mix ring fills). Their verdicts must come out
     in sorted signature order — not hash-table order. *)
  let module D = Diagnose.Detector in
  let cfg =
    {
      D.default_config with
      D.warmup_paths = 40;
      mix_window = 20;
      mix_min_frequency = 0.1;
      mix_tolerance = 0.9 (* keep Pattern_shift out of the way *);
    }
  in
  let det = D.create ~config:cfg ~telemetry:(R.create ()) () in
  let t = ref 0 in
  let next () =
    let b = !t in
    t := b + 20_000_000;
    b
  in
  let verdicts = ref [] in
  let feed cags = List.iter (fun c -> verdicts := !verdicts @ D.observe det c) cags in
  feed (List.init 40 (fun _ -> mk_three_tier ~base:(next ()) ()));
  (* 24 post-warmup paths; both novel patterns reach 2/20 of the ring
     well before the first full-ring check fires. *)
  feed
    (List.init 24 (fun i ->
         match i with
         | 5 | 6 -> mk_novel ~program:"tomcat" ~base:(next ()) ()
         | 11 | 12 -> mk_novel ~program:"jetty" ~base:(next ()) ()
         | _ -> mk_three_tier ~base:(next ()) ()));
  let news =
    List.filter_map
      (fun v -> if v.D.kind = D.Pattern_new then v.D.pattern else None)
      !verdicts
  in
  let expected =
    List.map
      (fun program ->
        let c = mk_novel ~program ~base:(next ()) () in
        (Core.Pattern.signature_of c, Core.Pattern.name_of c))
      [ "tomcat"; "jetty" ]
    |> List.sort compare
    |> List.map snd
  in
  Alcotest.(check (list string)) "both fire, in signature order" expected news

(* ---- determinism: skew estimator BFS over a cyclic pair graph ---- *)

let test_skew_estimator_order_independent () =
  let r = Lazy.force small_result in
  let cags = r.Core.Correlator.cags in
  let a = Core.Skew_estimator.estimate cags in
  let b = Core.Skew_estimator.estimate (List.rev cags) in
  let show e =
    List.map
      (fun (o : Core.Skew_estimator.estimate) ->
        Printf.sprintf "%s=%d/%d" o.Core.Skew_estimator.host
          (ST.span_ns o.Core.Skew_estimator.offset)
          o.Core.Skew_estimator.pairs_used)
      (Core.Skew_estimator.offsets e)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "offsets independent of discovery order" (show a)
    (show b)

(* ---- the closed loop: cluster, shards, root splice ---- *)

let test_cluster_hierarchy_matches_monolithic () =
  (* The paper's noisy environment (§5.3.3): rlogin/ssh chatter plus
     mysql clients hammering the service's own database — the feed the
     level-0 prefilter and the shard correlators must shed. *)
  let cluster =
    {
      Scenario.base =
        {
          Scenario.default with
          Scenario.clients = 12;
          time_scale = 0.02;
          seed = 5;
          noise = Scenario.Paper_noise { db_connections = 2 };
        };
      replicas = 4;
    }
  in
  let reg = R.create () in
  let plane =
    Plane.create ~telemetry:reg
      ~config:{ Plane.default_config with Plane.shards = 3 }
      cluster
  in
  let co = Scenario.run_cluster ~before_replica:(Plane.install plane) cluster in
  let report = Plane.finish plane in
  (* level-0 agents really reduced and resolved locally *)
  Alcotest.(check bool) "partial coalescing happened" true (report.Plane.partial_coalesced > 0);
  (* level-1 sharding: every shard worked, none saw the whole feed *)
  Alcotest.(check int) "three shards" 3 (List.length report.Plane.shard_reports);
  List.iter
    (fun (s : Plane.shard_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d completed paths" s.Plane.shard_id)
        true (s.Plane.paths_finished > 0);
      Alcotest.(check bool)
        (Printf.sprintf "shard %d saw a strict subset" s.Plane.shard_id)
        true
        (s.Plane.ingest_records < report.Plane.delivered_records))
    report.Plane.shard_reports;
  (* Feed volume: re-run the same cluster with flat raw-shipping agents
     (the Deploy plane) — what a single funnel's root would ingest — and
     compare against the PTP1 bytes the hierarchy's root reads. *)
  let deploys = ref [] in
  let flat_reg = R.create () in
  let _flat =
    Scenario.run_cluster
      ~before_replica:(fun _ svc ->
        deploys := Collect.Deploy.install ~telemetry:flat_reg svc :: !deploys)
      cluster
  in
  List.iter Collect.Deploy.finish !deploys;
  let flat_bytes =
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun a ag -> a + (Collect.Agent.stats ag).Collect.Agent.bytes_shipped)
          acc (Collect.Deploy.agents d))
      0 !deploys
  in
  Alcotest.(check bool) "root ingests >=3x less than a flat funnel" true
    (report.Plane.root_ingest_bytes * 3 <= flat_bytes);
  (* The second floor: half the committed BENCH_hierarchy.json
     reduction (11.9x). *)
  let reduction = float_of_int flat_bytes /. float_of_int report.Plane.root_ingest_bytes in
  if reduction < 5.95 then
    Alcotest.failf "root feed-volume reduction %.2fx is below 5.95x (%d flat / %d root bytes)"
      reduction flat_bytes report.Plane.root_ingest_bytes;
  Alcotest.(check bool) "level 0 already ships less than raw agents" true
    (report.Plane.agent_bytes_shipped < flat_bytes);
  let raw_bytes =
    String.length
      (Trace.Binary_format.encode_native (Trace.Arena.of_collection co.Scenario.all_logs))
  in
  Alcotest.(check bool) "root ingest is below even the one-shot raw archive" true
    (report.Plane.root_ingest_bytes * 3 <= raw_bytes);
  (* identity: the spliced root result is byte-identical to one
     monolithic correlator over the intact cluster logs *)
  let mono =
    Core.Correlator.correlate
      (Core.Correlator.config ~transform:co.Scenario.cluster_transform ())
      co.Scenario.all_logs
  in
  Alcotest.(check int) "path population matches"
    (List.length mono.Core.Correlator.cags)
    (List.length report.Plane.finished);
  Alcotest.(check string) "hierarchical digest = monolithic digest"
    (Core.Hierarchy.digest_result mono) report.Plane.digest;
  (* collection accounting stayed clean end to end *)
  List.iter
    (fun a ->
      let s = Collect.Agent.stats a in
      Alcotest.(check int)
        (Printf.sprintf "%s: observed = reduced + dropped + acked + spooled + queued"
           (Collect.Agent.host a))
        s.Collect.Agent.observed
        (s.Collect.Agent.reduced + Collect.Agent.dropped_total s
       + s.Collect.Agent.acked_records + s.Collect.Agent.spooled_records
       + s.Collect.Agent.queued_records))
    (Plane.agents plane);
  List.init cluster.Scenario.replicas (fun i -> i)
  |> List.iter (fun i ->
         match Plane.collector plane i with
         | None -> Alcotest.failf "replica %d has no collector" i
         | Some c ->
             List.iter
               (fun (host, (hs : Collector.host_stats)) ->
                 Alcotest.(check int)
                   (Printf.sprintf "%s: delivered + duplicates + skipped = seqs" host)
                   hs.Collector.next_seq
                   (hs.Collector.delivered_frames + hs.Collector.duplicate_frames
                  + hs.Collector.skipped_frames);
                 Alcotest.(check int)
                   (Printf.sprintf "%s: nothing lost in a clean run" host)
                   0 hs.Collector.skipped_frames)
               (Collector.stats c))

(* ---- the shared replica installer: agent crashes under the tree ---- *)

let test_cluster_agent_crash () =
  (* Deploy.install_replica wires Agent_crash for the hierarchy too: the
     fault names app1, so only replica 0 (shard 0) loses records. *)
  let scale = 0.02 in
  let cluster =
    {
      Scenario.base =
        {
          Scenario.default with
          Scenario.clients = 12;
          time_scale = scale;
          seed = 5;
          faults =
            [
              Tiersim.Faults.agent_crash ~host:"app1"
                ~after:(ST.span_scale scale (ST.ms 200_000))
                ~restart_after:(Some (ST.span_scale scale (ST.ms 100_000)));
            ];
        };
      replicas = 2;
    }
  in
  let plane =
    Plane.create ~telemetry:(R.create ())
      ~config:{ Plane.default_config with Plane.shards = 2 }
      cluster
  in
  let (_ : Scenario.cluster_outcome) =
    Scenario.run_cluster ~before_replica:(Plane.install plane) cluster
  in
  let (_ : Plane.report) = Plane.finish plane in
  let agents = Plane.agents plane in
  Alcotest.(check int) "three agents per replica" 6 (List.length agents);
  List.iter
    (fun a ->
      let s = Collect.Agent.stats a in
      Alcotest.(check int)
        (Printf.sprintf "%s: observed = reduced + dropped + acked + spooled + queued"
           (Collect.Agent.host a))
        s.Collect.Agent.observed
        (s.Collect.Agent.reduced + Collect.Agent.dropped_total s
       + s.Collect.Agent.acked_records + s.Collect.Agent.spooled_records
       + s.Collect.Agent.queued_records);
      if String.equal (Collect.Agent.host a) "app1" then begin
        Alcotest.(check bool) "app1 dropped records" true (Collect.Agent.dropped_total s > 0);
        Alcotest.(check int) "app1 reconnected once" 2 s.Collect.Agent.connections
      end)
    agents;
  let flagged k =
    Core.Online.paths (Plane.shard_online plane k)
    |> List.filter Core.Cag.is_deformed |> List.length
  in
  Alcotest.(check bool) "shard 0 flags outage-spanning paths" true (flagged 0 > 0);
  Alcotest.(check int) "shard 1 flags none" 0 (flagged 1)

let () =
  Alcotest.run "hierarchy"
    [
      ( "ptp1",
        [ Alcotest.test_case "round-trip preserves the digest" `Quick test_ptp1_roundtrip ] );
      ("splice", [ qtest prop_splice_invariance ]);
      ( "partial",
        [
          Alcotest.test_case "reduced feed correlates identically" `Quick
            test_partial_identity;
        ] );
      ( "collector",
        [
          Alcotest.test_case "horizon jump replays stashed frames" `Quick
            test_collector_horizon_jump_replays_pending;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "new-pattern verdicts in signature order" `Quick
            test_detector_new_patterns_sorted;
          Alcotest.test_case "skew offsets independent of edge order" `Quick
            test_skew_estimator_order_independent;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "hierarchical = monolithic on 4 replicas" `Slow
            test_cluster_hierarchy_matches_monolithic;
          Alcotest.test_case "agent crash on 2 replicas" `Quick test_cluster_agent_crash;
        ] );
    ]
