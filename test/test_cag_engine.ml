(* Tests for the correlation engine: the Fig. 3 pseudo-code cases, n-to-n
   merging (Fig. 4), thread-reuse checks, and orphan handling. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Cag = Core.Cag
module Cag_engine = Core.Cag_engine
module Sim_time = Simnet.Sim_time

(* Feed candidates directly (engine-level tests bypass the ranker). *)
let run_engine acts =
  let engine = Cag_engine.create () in
  List.iter (Cag_engine.step engine) acts;
  engine

let b ts = H.act ~kind:Activity.Begin ~ts ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:400
let e ts size = H.act ~kind:Activity.End_ ~ts ~ctx:H.web_ctx ~flow:H.web_client_flow ~size
let ws ts size = H.act ~kind:Activity.Send ~ts ~ctx:H.web_ctx ~flow:H.web_app_flow ~size
let ar ts size = H.act ~kind:Activity.Receive ~ts ~ctx:H.app_ctx ~flow:H.web_app_flow ~size
let as_ ts size = H.act ~kind:Activity.Send ~ts ~ctx:H.app_ctx ~flow:H.app_web_flow ~size
let wr ts size = H.act ~kind:Activity.Receive ~ts ~ctx:H.web_ctx ~flow:H.app_web_flow ~size

let test_begin_starts_cag () =
  let engine = run_engine [ b 0 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "started" 1 stats.Cag_engine.cags_started;
  Alcotest.(check int) "not finished" 0 stats.cags_finished;
  Alcotest.(check int) "one open" 1 (List.length (Cag_engine.unfinished engine))

let test_full_round_trip () =
  let engine = run_engine [ b 0; ws 1 100; ar 2 100; as_ 3 200; wr 4 200; e 5 300 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "finished" 1 stats.Cag_engine.cags_finished;
  Alcotest.(check int) "no orphans" 0 stats.orphans;
  match Cag_engine.finished engine with
  | [ cag ] ->
      H.check_valid cag;
      Alcotest.(check int) "six vertices" 6 (Cag.size cag);
      Alcotest.(check int) "duration" 5 (Sim_time.span_ns (Cag.duration cag))
  | _ -> Alcotest.fail "one CAG"

let test_send_merge () =
  (* One logical 16k message sent in two syscalls, received in one. *)
  let engine = run_engine [ b 0; ws 1 8192; ws 2 8192; ar 3 16384; as_ 4 10; wr 5 10; e 6 5 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "one merge" 1 stats.Cag_engine.send_merges;
  Alcotest.(check int) "finished" 1 stats.cags_finished;
  match Cag_engine.finished engine with
  | [ cag ] ->
      H.check_valid cag;
      Alcotest.(check int) "merged into 6 vertices" 6 (Cag.size cag);
      let sizes =
        List.filter_map
          (fun (v : Cag.vertex) ->
            match v.Cag.activity.Activity.kind with
            | Activity.Send -> Some v.Cag.activity.Activity.message.size
            | _ -> None)
          (Cag.vertices cag)
      in
      Alcotest.(check (list int)) "send sizes" [ 16384; 10 ] sizes
  | _ -> Alcotest.fail "one CAG"

let test_fig4_n_to_n () =
  (* The paper's Fig. 4: sender writes 2 parts, receiver reads 3 parts. *)
  let engine =
    run_engine
      [ b 0; ws 1 8000; ws 2 4000; ar 3 5000; ar 4 5000; ar 5 2000; as_ 6 10; wr 7 10; e 8 5 ]
  in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "send merge" 1 stats.Cag_engine.send_merges;
  Alcotest.(check int) "two partial receives" 2 stats.partial_receives;
  Alcotest.(check int) "finished" 1 stats.cags_finished;
  match Cag_engine.finished engine with
  | [ cag ] ->
      H.check_valid cag;
      let receives =
        List.filter
          (fun (v : Cag.vertex) ->
            Activity.equal_kind v.Cag.activity.Activity.kind Activity.Receive)
          (Cag.vertices cag)
      in
      (match receives with
      | [ r1; _r2 ] ->
          Alcotest.(check int) "receive carries full size" 12000
            r1.Cag.activity.Activity.message.size;
          Alcotest.(check int) "completing chunk's timestamp" 5
            (Sim_time.to_ns r1.Cag.activity.Activity.timestamp)
      | _ -> Alcotest.fail "expected two receive vertices")
  | _ -> Alcotest.fail "one CAG"

let test_rule1_race_reopen () =
  (* The receive of the first chunk completes before the sender's second
     chunk is ranked (possible because rule 1 outranks rule 2): the engine
     must reopen the SEND and extend the same RECEIVE vertex. *)
  let engine =
    run_engine [ b 0; ws 1 8192; ar 2 8192; ws 3 8192; ar 4 8192; as_ 5 10; wr 6 10; e 7 5 ]
  in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "merge after drain" 1 stats.Cag_engine.send_merges;
  Alcotest.(check int) "receive merge" 1 stats.receive_merges;
  Alcotest.(check int) "finished" 1 stats.cags_finished;
  Alcotest.(check int) "no unmatched" 0 stats.unmatched_receives;
  match Cag_engine.finished engine with
  | [ cag ] ->
      H.check_valid cag;
      Alcotest.(check int) "six vertices" 6 (Cag.size cag)
  | _ -> Alcotest.fail "one CAG"

let test_straddling_read_reopens () =
  (* SEND 16184 then SEND 250 on one flow; the receiver reads 8192, 8192
     (straddling both syscalls) and 50. Rule 1 delivers both 8192-byte
     reads before the SEND 250 is ranked, draining the SEND 200 bytes past
     zero; the grown SEND must re-enter the mmap for the 50-byte tail. *)
  let engine =
    run_engine [ b 0; ws 1 16184; ar 2 8192; ar 3 8192; ws 4 250; ar 5 50 ]
  in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "no unmatched" 0 stats.Cag_engine.unmatched_receives;
  Alcotest.(check int) "crossed once" 1 stats.crossed_boundaries;
  Alcotest.(check int) "receive merge" 1 stats.receive_merges;
  Alcotest.(check int) "empty mmap" 0 (Cag_engine.mmap_entries engine);
  match Cag_engine.unfinished engine with
  | [ cag ] -> (
      let receives =
        List.filter
          (fun (v : Cag.vertex) ->
            Activity.equal_kind v.Cag.activity.Activity.kind Activity.Receive)
          (Cag.vertices cag)
      in
      match receives with
      | [ v ] -> Alcotest.(check int) "one RECEIVE of the whole message" 16434
                   v.Cag.activity.Activity.message.size
      | _ -> Alcotest.failf "%d RECEIVE vertices" (List.length receives))
  | _ -> Alcotest.fail "one open CAG"

let test_end_merge () =
  (* Response sent to the client in three syscalls: one END vertex. *)
  let engine = run_engine [ b 0; ws 1 10; ar 2 10; as_ 3 10; wr 4 10; e 5 8192; e 6 8192; e 7 1000 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "two end merges" 2 stats.Cag_engine.end_merges;
  Alcotest.(check int) "finished once" 1 stats.cags_finished;
  match Cag_engine.finished engine with
  | [ cag ] ->
      H.check_valid cag;
      let last = List.nth (Cag.vertices cag) (Cag.size cag - 1) in
      Alcotest.(check int) "END accumulated size" 17384
        last.Cag.activity.Activity.message.size
  | _ -> Alcotest.fail "one CAG"

let test_two_sequential_requests_same_contexts () =
  (* Same worker serves two requests back to back; both must resolve. *)
  let shift = 1_000_000 in
  let req base =
    [ b base; ws (base + 1) 50; ar (base + 2) 50; as_ (base + 3) 60; wr (base + 4) 60; e (base + 5) 70 ]
  in
  let engine = run_engine (req 0 @ req shift) in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "both finished" 2 stats.Cag_engine.cags_finished;
  Alcotest.(check int) "no orphans" 0 stats.orphans;
  List.iter H.check_valid (Cag_engine.finished engine)

let test_thread_reuse_blocked_edge () =
  (* Interleave two requests on distinct web workers but the same app
     thread (recycled). The app thread's receive for request B must not get
     a context edge from request A's vertices. *)
  let web2 = H.ctx ~host:"web" ~program:"httpd" ~pid:11 ~tid:11 () in
  let cw2 = H.flow "10.0.0.2" 40001 "10.0.1.1" 80 in
  let wc2 = Simnet.Address.reverse cw2 in
  let wa2 = H.flow "10.0.1.1" 41001 "10.0.2.1" 8009 in
  let aw2 = Simnet.Address.reverse wa2 in
  let b2 ts = H.act ~kind:Activity.Begin ~ts ~ctx:web2 ~flow:cw2 ~size:10 in
  let ws2 ts = H.act ~kind:Activity.Send ~ts ~ctx:web2 ~flow:wa2 ~size:20 in
  let ar2 ts = H.act ~kind:Activity.Receive ~ts ~ctx:H.app_ctx ~flow:wa2 ~size:20 in
  let as2 ts = H.act ~kind:Activity.Send ~ts ~ctx:H.app_ctx ~flow:aw2 ~size:30 in
  let wr2 ts = H.act ~kind:Activity.Receive ~ts ~ctx:web2 ~flow:aw2 ~size:30 in
  let e2 ts = H.act ~kind:Activity.End_ ~ts ~ctx:web2 ~flow:wc2 ~size:40 in
  let engine =
    run_engine
      [
        b 0; ws 1 50; ar 2 50; as_ 3 60; wr 4 60; e 5 70;
        (* request B on the recycled app thread *)
        b2 10; ws2 11; ar2 12; as2 13; wr2 14; e2 15;
      ]
  in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "both finished" 2 stats.Cag_engine.cags_finished;
  (* The app thread's cmap still pointed at request A's send when request
     B's receive arrived: context edge suppressed. *)
  Alcotest.(check int) "reuse blocked" 1 stats.thread_reuse_blocked;
  match Cag_engine.finished engine with
  | [ cag_a; cag_b ] ->
      H.check_valid cag_a;
      H.check_valid cag_b;
      let receive_parents =
        List.filter_map
          (fun (v : Cag.vertex) ->
            if
              Activity.equal_kind v.Cag.activity.Activity.kind Activity.Receive
              && Activity.equal_context v.Cag.activity.Activity.context H.app_ctx
            then Some (List.length v.Cag.parents)
            else None)
          (Cag.vertices cag_b)
      in
      Alcotest.(check (list int)) "B's app receive has only the message parent" [ 1 ]
        receive_parents
  | _ -> Alcotest.fail "two CAGs"

let test_unmatched_receive_counted () =
  let engine = run_engine [ ar 5 100 ] in
  Alcotest.(check int) "unmatched" 1 (Cag_engine.stats engine).Cag_engine.unmatched_receives

let test_orphan_chain_no_begin () =
  (* Loss of the BEGIN: the whole chain stays out of any CAG. *)
  let engine = run_engine [ ws 1 50; ar 2 50; as_ 3 60; wr 4 60; e 5 70 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "nothing finished" 0 stats.Cag_engine.cags_finished;
  Alcotest.(check bool) "orphans recorded" true (stats.orphans > 0)

let test_lost_end_leaves_deformed () =
  let engine = run_engine [ b 0; ws 1 50; ar 2 50; as_ 3 60; wr 4 60 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "unfinished" 0 stats.Cag_engine.cags_finished;
  Alcotest.(check int) "one deformed" 1 (List.length (Cag_engine.unfinished engine))

let test_finished_count_and_last () =
  let engine = Cag_engine.create () in
  let counts =
    List.map
      (fun a ->
        Cag_engine.step engine a;
        Cag_engine.finished_count engine)
      [ b 0; ws 1 10; ar 2 10; as_ 3 10; wr 4 10; e 5 10 ]
  in
  Alcotest.(check (list int)) "only the END completes a CAG" [ 0; 0; 0; 0; 0; 1 ] counts;
  Alcotest.(check int) "last finished is the CAG" 6 (Cag.size (Cag_engine.last_finished engine))

let test_live_vertex_accounting () =
  let engine = Cag_engine.create () in
  List.iter (Cag_engine.step engine) [ b 0; ws 1 10; ar 2 10 ];
  Alcotest.(check int) "live while open" 3 (Cag_engine.live_vertices engine);
  List.iter (Cag_engine.step engine) [ as_ 3 10; wr 4 10; e 5 10 ];
  Alcotest.(check int) "released at finish" 0 (Cag_engine.live_vertices engine);
  Alcotest.(check int) "peak" 6 (Cag_engine.stats engine).Cag_engine.peak_live_vertices

let test_mmap_entries_tracking () =
  let engine = Cag_engine.create () in
  Cag_engine.step engine (b 0);
  Cag_engine.step engine (ws 1 10);
  Alcotest.(check bool) "mmap has the flow" true
    (Cag_engine.has_mmap_send engine (Trace.Intern.flow_id H.web_app_flow));
  Alcotest.(check int) "one entry" 1 (Cag_engine.mmap_entries engine);
  Cag_engine.step engine (ar 2 10);
  Alcotest.(check bool) "consumed" false (Cag_engine.has_mmap_send engine (Trace.Intern.flow_id H.web_app_flow));
  Alcotest.(check int) "zero entries" 0 (Cag_engine.mmap_entries engine)

let test_interleaved_sends_same_flow_fifo () =
  (* Two outstanding logical messages on one flow (pipelined): receives
     must match in FIFO order. The sends come from different contexts so
     they are not merged. *)
  let web_b = H.ctx ~host:"web" ~program:"httpd" ~pid:77 ~tid:77 () in
  let s1 = H.act ~kind:Activity.Send ~ts:1 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:100 in
  let s2 = H.act ~kind:Activity.Send ~ts:2 ~ctx:web_b ~flow:H.web_app_flow ~size:200 in
  let r1 = H.act ~kind:Activity.Receive ~ts:3 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:100 in
  let r2 = H.act ~kind:Activity.Receive ~ts:4 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:200 in
  let engine = run_engine [ s1; s2; r1; r2 ] in
  let stats = Cag_engine.stats engine in
  Alcotest.(check int) "no unmatched" 0 stats.Cag_engine.unmatched_receives;
  Alcotest.(check int) "no crossings" 0 stats.crossed_boundaries;
  Alcotest.(check int) "mmap drained" 0 (Cag_engine.mmap_entries engine)

let () =
  Alcotest.run "cag_engine"
    [
      ( "pseudo-code cases",
        [
          Alcotest.test_case "BEGIN starts a CAG" `Quick test_begin_starts_cag;
          Alcotest.test_case "full round trip" `Quick test_full_round_trip;
          Alcotest.test_case "consecutive sends merge" `Quick test_send_merge;
          Alcotest.test_case "Fig. 4 n-to-n matching" `Quick test_fig4_n_to_n;
          Alcotest.test_case "rule-1 race reopens the send" `Quick test_rule1_race_reopen;
          Alcotest.test_case "straddling read reopens the send" `Quick
            test_straddling_read_reopens;
          Alcotest.test_case "multi-part END merges" `Quick test_end_merge;
        ] );
      ( "contexts and reuse",
        [
          Alcotest.test_case "sequential requests" `Quick test_two_sequential_requests_same_contexts;
          Alcotest.test_case "thread reuse blocks context edge" `Quick
            test_thread_reuse_blocked_edge;
          Alcotest.test_case "pipelined sends match FIFO" `Quick
            test_interleaved_sends_same_flow_fifo;
        ] );
      ( "degraded input",
        [
          Alcotest.test_case "unmatched receive" `Quick test_unmatched_receive_counted;
          Alcotest.test_case "lost BEGIN orphans chain" `Quick test_orphan_chain_no_begin;
          Alcotest.test_case "lost END leaves deformed CAG" `Quick test_lost_end_leaves_deformed;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "finished count and last CAG" `Quick test_finished_count_and_last;
          Alcotest.test_case "live vertex accounting" `Quick test_live_vertex_accounting;
          Alcotest.test_case "mmap tracking" `Quick test_mmap_entries_tracking;
        ] );
    ]
