(* Tests for the ranker: rules 1 and 2, windowing, concurrency-disturbance
   promotion, and the is_noise check. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Ranker = Core.Ranker
module Log = Trace.Log
module Sim_time = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

(* A ranker over raw logs with a controllable mmap oracle. *)
let ranker ?(window = Sim_time.ms 10) ?skew_allowance ?(mmap = fun _ -> false) logs =
  Ranker.create ~window ?skew_allowance ~has_mmap_send:mmap logs

let drain r =
  let rec loop acc =
    match Ranker.rank r with None -> List.rev acc | Some a -> loop (a :: acc)
  in
  loop []

let kinds = List.map (fun (a : Activity.t) -> a.kind)

(* The mmap oracles below speak interned flow ids, as the engine does. *)
let flow_id (a : Activity.t) = Trace.Intern.flow_id a.Activity.message.flow

(* Drain with a realistic mmap oracle: a flow matches once its SEND has
   been emitted (and is consumed by its completing RECEIVE). *)
let drain_tracking r emitted =
  let rec loop acc =
    match Ranker.rank r with
    | None -> List.rev acc
    | Some a ->
        (match a.Activity.kind with
        | Activity.Send ->
            let n = Option.value ~default:0 (Hashtbl.find_opt emitted (flow_id a)) in
            Hashtbl.replace emitted (flow_id a) (n + 1)
        | Activity.Receive -> (
            match Hashtbl.find_opt emitted (flow_id a) with
            | Some 1 -> Hashtbl.remove emitted (flow_id a)
            | Some n -> Hashtbl.replace emitted (flow_id a) (n - 1)
            | None -> ())
        | Activity.Begin | Activity.End_ -> ());
        loop (a :: acc)
  in
  loop []

let with_tracking_ranker ?window ?skew_allowance logs =
  let emitted = Hashtbl.create 8 in
  let r =
    ranker ?window ?skew_allowance
      ~mmap:(fun f -> Option.value ~default:0 (Hashtbl.find_opt emitted f) > 0)
      logs
  in
  (r, emitted)

let test_rule2_send_before_receive () =
  (* A SEND on node A and its RECEIVE on node B, receive timestamp smaller
     due to skew: rule 2 must still emit the SEND first. *)
  let s = H.act ~kind:Activity.Send ~ts:100 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:10 in
  let r = H.act ~kind:Activity.Receive ~ts:50 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:10 in
  let logs = [ Log.of_list ~hostname:"web" [ s ]; Log.of_list ~hostname:"app" [ r ] ] in
  let rk, emitted = with_tracking_ranker logs in
  let order = drain_tracking rk emitted in
  Alcotest.(check (list bool)) "send first" [ true; false ]
    (List.map (fun (a : Activity.t) -> Activity.equal_kind a.kind Activity.Send) order)

let test_rule1_matched_receive_first () =
  (* Heads: a RECEIVE whose SEND is in the mmap, and a BEGIN with an earlier
     timestamp on another node. Rule 1 beats priority. *)
  let r = H.act ~kind:Activity.Receive ~ts:100 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:10 in
  let b = H.act ~kind:Activity.Begin ~ts:10 ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:9 in
  let logs = [ Log.of_list ~hostname:"web" [ b ]; Log.of_list ~hostname:"app" [ r ] ] in
  let order = drain (ranker ~mmap:(fun _ -> true) logs) in
  match kinds order with
  | [ Activity.Receive; Activity.Begin ] -> ()
  | _ -> Alcotest.fail "rule 1 should pick the matched receive first"

let test_priority_order () =
  (* Four heads on four nodes, same timestamps: BEGIN < SEND < END < RECEIVE.
     The receive's send is not in the mmap, but with everything else popped
     first it eventually surfaces via the noise path... so give it a match. *)
  let b = H.act ~kind:Activity.Begin ~ts:5 ~ctx:(H.ctx ~host:"n1" ()) ~flow:H.client_web_flow ~size:1 in
  let s = H.act ~kind:Activity.Send ~ts:5 ~ctx:(H.ctx ~host:"n2" ()) ~flow:H.web_app_flow ~size:1 in
  let e = H.act ~kind:Activity.End_ ~ts:5 ~ctx:(H.ctx ~host:"n3" ()) ~flow:H.web_client_flow ~size:1 in
  let r = H.act ~kind:Activity.Receive ~ts:5 ~ctx:(H.ctx ~host:"n4" ()) ~flow:H.app_db_flow ~size:1 in
  let logs =
    [
      Log.of_list ~hostname:"n4" [ r ];
      Log.of_list ~hostname:"n3" [ e ];
      Log.of_list ~hostname:"n2" [ s ];
      Log.of_list ~hostname:"n1" [ b ];
    ]
  in
  (* mmap matches only after the send has been emitted. *)
  let sent = ref false in
  let r' =
    ranker
      ~mmap:(fun f -> !sent && f = Trace.Intern.flow_id H.app_db_flow)
      logs
  in
  let order =
    let rec loop acc =
      match Ranker.rank r' with
      | None -> List.rev acc
      | Some a ->
          if Activity.equal_kind a.Activity.kind Activity.Send then sent := true;
          loop (a :: acc)
    in
    loop []
  in
  (* Rule 1 outranks the priority list: once the SEND is emitted, the
     matched RECEIVE preempts the END. Rule 2 still orders BEGIN < SEND. *)
  match kinds order with
  | [ Activity.Begin; Activity.Send; Activity.Receive; Activity.End_ ] -> ()
  | ks ->
      Alcotest.failf "bad order: %s"
        (String.concat "," (List.map Activity.kind_to_string ks))

let test_priority_order_rule2_only () =
  (* With no mmap oracle at all, rule 2 orders BEGIN < SEND < END and the
     unmatched RECEIVE is eventually discarded as noise. *)
  let b = H.act ~kind:Activity.Begin ~ts:5 ~ctx:(H.ctx ~host:"n1" ()) ~flow:H.client_web_flow ~size:1 in
  let s = H.act ~kind:Activity.Send ~ts:5 ~ctx:(H.ctx ~host:"n2" ()) ~flow:H.web_app_flow ~size:1 in
  let e = H.act ~kind:Activity.End_ ~ts:5 ~ctx:(H.ctx ~host:"n3" ()) ~flow:H.web_client_flow ~size:1 in
  let r = H.act ~kind:Activity.Receive ~ts:5 ~ctx:(H.ctx ~host:"n4" ()) ~flow:H.app_db_flow ~size:1 in
  let logs =
    [
      Log.of_list ~hostname:"n4" [ r ];
      Log.of_list ~hostname:"n3" [ e ];
      Log.of_list ~hostname:"n2" [ s ];
      Log.of_list ~hostname:"n1" [ b ];
    ]
  in
  let rk = ranker logs in
  let order = drain rk in
  (match kinds order with
  | [ Activity.Begin; Activity.Send; Activity.End_ ] -> ()
  | ks ->
      Alcotest.failf "bad order: %s" (String.concat "," (List.map Activity.kind_to_string ks)));
  Alcotest.(check int) "receive discarded" 1 (Ranker.stats rk).Ranker.noise_discarded

let test_same_queue_order_preserved () =
  (* Activities of one node must come out in log order regardless of kind. *)
  let acts =
    [
      H.act ~kind:Activity.Receive ~ts:1 ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:1;
      H.act ~kind:Activity.Send ~ts:2 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1;
      H.act ~kind:Activity.Receive ~ts:3 ~ctx:H.web_ctx ~flow:H.app_web_flow ~size:1;
      H.act ~kind:Activity.Send ~ts:4 ~ctx:H.web_ctx ~flow:H.web_client_flow ~size:1;
    ]
  in
  let logs = [ Log.of_list ~hostname:"web" acts ] in
  let order = drain (ranker ~mmap:(fun _ -> true) logs) in
  Alcotest.(check (list int)) "log order" [ 1; 2; 3; 4 ]
    (List.map (fun (a : Activity.t) -> Sim_time.to_ns a.Activity.timestamp) order)

let test_concurrency_disturbance_swap () =
  (* The paper's Fig. 6: two queues, both heads are RECEIVEs blocking the
     other's matched SEND at position 1. *)
  let f12 = H.flow "10.0.0.1" 100 "10.0.0.2" 200 in
  let f21 = H.flow "10.0.0.2" 300 "10.0.0.1" 400 in
  let ctx1a = H.ctx ~host:"n1" ~pid:1 ~tid:1 () in
  let ctx1b = H.ctx ~host:"n1" ~pid:2 ~tid:2 () in
  let ctx2a = H.ctx ~host:"n2" ~pid:3 ~tid:3 () in
  let ctx2b = H.ctx ~host:"n2" ~pid:4 ~tid:4 () in
  let n1 =
    [
      H.act ~kind:Activity.Receive ~ts:10 ~ctx:ctx1a ~flow:f21 ~size:5;
      H.act ~kind:Activity.Send ~ts:11 ~ctx:ctx1b ~flow:f12 ~size:5;
    ]
  in
  let n2 =
    [
      H.act ~kind:Activity.Receive ~ts:10 ~ctx:ctx2a ~flow:f12 ~size:5;
      H.act ~kind:Activity.Send ~ts:11 ~ctx:ctx2b ~flow:f21 ~size:5;
    ]
  in
  let logs = [ Log.of_list ~hostname:"n1" n1; Log.of_list ~hostname:"n2" n2 ] in
  (* mmap oracle reflecting emitted sends *)
  let emitted = Hashtbl.create 4 in
  let r =
    ranker ~mmap:(Hashtbl.mem emitted) logs
  in
  let order =
    let rec loop acc =
      match Ranker.rank r with
      | None -> List.rev acc
      | Some a ->
          if Activity.equal_kind a.Activity.kind Activity.Send then
            Hashtbl.replace emitted (flow_id a) ();
          loop (a :: acc)
    in
    loop []
  in
  Alcotest.(check int) "all four emitted" 4 (List.length order);
  let stats = Ranker.stats r in
  Alcotest.(check bool) "at least one promotion" true (stats.Ranker.promotions >= 1);
  Alcotest.(check int) "nothing discarded" 0 stats.noise_discarded;
  (* each send must precede its matching receive *)
  let pos flow kind =
    let rec idx i = function
      | [] -> -1
      | (a : Activity.t) :: rest ->
          if Activity.equal_kind a.kind kind && Simnet.Address.flow_equal a.message.flow flow
          then i
          else idx (i + 1) rest
    in
    idx 0 order
  in
  Alcotest.(check bool) "f12 causal" true (pos f12 Activity.Send < pos f12 Activity.Receive);
  Alcotest.(check bool) "f21 causal" true (pos f21 Activity.Send < pos f21 Activity.Receive)

let test_promotion_never_crosses_own_context () =
  (* A SEND must not be promoted over an earlier activity of its own
     context: queue n1 = [RECEIVE(ctx_x, flow_a); SEND(ctx_x, flow_b)],
     queue n2 head waits for flow_b. The ranker has to resolve n1's head
     some other way (here: noise-discard it), never reorder ctx_x. *)
  let flow_a = H.flow "9.9.9.9" 1 "10.0.0.1" 2 in
  let flow_b = H.flow "10.0.0.1" 3 "10.0.0.2" 4 in
  let ctx_x = H.ctx ~host:"n1" ~pid:1 ~tid:1 () in
  let ctx_y = H.ctx ~host:"n2" ~pid:2 ~tid:2 () in
  let n1 =
    [
      H.act ~kind:Activity.Receive ~ts:10 ~ctx:ctx_x ~flow:flow_a ~size:5;
      H.act ~kind:Activity.Send ~ts:12 ~ctx:ctx_x ~flow:flow_b ~size:5;
    ]
  in
  let n2 = [ H.act ~kind:Activity.Receive ~ts:11 ~ctx:ctx_y ~flow:flow_b ~size:5 ] in
  let logs = [ Log.of_list ~hostname:"n1" n1; Log.of_list ~hostname:"n2" n2 ] in
  let emitted = Hashtbl.create 4 in
  let r = ranker ~mmap:(Hashtbl.mem emitted) logs in
  let order =
    let rec loop acc =
      match Ranker.rank r with
      | None -> List.rev acc
      | Some a ->
          if Activity.equal_kind a.Activity.kind Activity.Send then
            Hashtbl.replace emitted (flow_id a) ();
          loop (a :: acc)
    in
    loop []
  in
  (* flow_a receive is noise (sender untraced); the other two correlate. *)
  Alcotest.(check int) "two candidates" 2 (List.length order);
  let stats = Ranker.stats r in
  Alcotest.(check int) "one noise discard" 1 stats.Ranker.noise_discarded;
  Alcotest.(check int) "no forced discards" 0 stats.forced_discards;
  match kinds order with
  | [ Activity.Send; Activity.Receive ] -> ()
  | _ -> Alcotest.fail "expected send then receive"

let test_noise_discard () =
  (* A lone RECEIVE with no sender anywhere is noise. *)
  let r = H.act ~kind:Activity.Receive ~ts:10 ~ctx:H.db_ctx ~flow:H.app_db_flow ~size:9 in
  let logs = [ Log.of_list ~hostname:"db" [ r ] ] in
  let rk = ranker logs in
  Alcotest.(check bool) "nothing emitted" true (drain rk = []);
  Alcotest.(check int) "discarded" 1 (Ranker.stats rk).Ranker.noise_discarded

let test_skew_does_not_misclassify () =
  (* The SEND's local timestamp is far ahead (receiver clock behind by
     400ms); with a 1ms window the ranker must defer and not declare the
     receive noise. *)
  let s = H.act ~kind:Activity.Send ~ts:400_000_000 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:5 in
  let r = H.act ~kind:Activity.Receive ~ts:1_000 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:5 in
  let logs = [ Log.of_list ~hostname:"web" [ s ]; Log.of_list ~hostname:"app" [ r ] ] in
  let rk, emitted = with_tracking_ranker ~window:(Sim_time.ms 1) logs in
  let order = drain_tracking rk emitted in
  Alcotest.(check int) "both emitted" 2 (List.length order);
  Alcotest.(check int) "no noise" 0 (Ranker.stats rk).Ranker.noise_discarded;
  match kinds order with
  | [ Activity.Send; Activity.Receive ] -> ()
  | _ -> Alcotest.fail "send must still precede receive"

let test_skew_beyond_allowance_is_noise () =
  (* If the matching send is further away than the allowance, the receive
     is (deliberately) classified as noise. *)
  let s = H.act ~kind:Activity.Send ~ts:2_000_000_000 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:5 in
  let r = H.act ~kind:Activity.Receive ~ts:1_000 ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:5 in
  let logs = [ Log.of_list ~hostname:"web" [ s ]; Log.of_list ~hostname:"app" [ r ] ] in
  let rk = ranker ~window:(Sim_time.ms 1) ~skew_allowance:(Sim_time.ms 100) logs in
  let order = drain rk in
  Alcotest.(check int) "only the send emitted" 1 (List.length order);
  Alcotest.(check int) "receive discarded" 1 (Ranker.stats rk).Ranker.noise_discarded

let test_window_bounds_buffer () =
  (* With everything on one node and 1 activity per ms, a W-sized window
     should keep the buffer near W activities. *)
  let acts =
    List.init 1000 (fun i ->
        H.act ~kind:Activity.Send ~ts:(i * 1_000_000) ~ctx:H.web_ctx ~flow:H.web_app_flow
          ~size:(i + 1))
  in
  let logs = [ Log.of_list ~hostname:"web" acts ] in
  let small = ranker ~window:(Sim_time.ms 5) logs in
  ignore (drain small);
  let big = ranker ~window:(Sim_time.ms 500) logs in
  ignore (drain big);
  let ps = (Ranker.stats small).Ranker.peak_buffered in
  let pb = (Ranker.stats big).Ranker.peak_buffered in
  Alcotest.(check bool) "small window buffers less" true (ps < pb);
  Alcotest.(check bool) "small around 6" true (ps <= 10);
  Alcotest.(check bool) "big around 501" true (pb >= 400)

let test_empty_input () =
  let rk = ranker [ Log.of_list ~hostname:"x" [] ] in
  Alcotest.(check bool) "none" true (Ranker.rank rk = None);
  Alcotest.(check bool) "still none" true (Ranker.rank rk = None)

let test_invalid_window () =
  match ranker ~window:Sim_time.span_zero [ Log.of_list ~hostname:"x" [] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero window accepted"

(* Property: for a well-formed request trace under arbitrary per-node skew
   and any window, the ranker emits every activity exactly once and each
   SEND precedes its matched RECEIVE. We reuse the full correlator since
   rule 1 needs the real mmap. *)
let prop_ranker_complete_under_skew =
  QCheck.Test.make ~name:"ranker emits all activities, sends before receives" ~count:150
    QCheck.(
      triple
        (int_range 0 100_000_000 (* wskew ns *))
        (int_range 0 100_000_000)
        (int_range 1 50 (* window ms *)))
    (fun (askew, dskew, win_ms) ->
      let logs = H.logs_of_request ~askew ~dskew:(-dskew) () in
      let engine, _ranker = H.correlate_raw ~window:(Sim_time.ms win_ms) logs in
      let stats = Core.Cag_engine.stats engine in
      stats.Core.Cag_engine.cags_finished = 1
      && stats.unmatched_receives = 0
      && stats.orphans = 0)

let () =
  Alcotest.run "ranker"
    [
      ( "rules",
        [
          Alcotest.test_case "rule 2: send before receive" `Quick test_rule2_send_before_receive;
          Alcotest.test_case "rule 1: matched receive first" `Quick test_rule1_matched_receive_first;
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "priority order (rule 2 only)" `Quick
            test_priority_order_rule2_only;
          Alcotest.test_case "same-queue order preserved" `Quick test_same_queue_order_preserved;
        ] );
      ( "disturbance",
        [
          Alcotest.test_case "concurrency swap (Fig. 6)" `Quick test_concurrency_disturbance_swap;
          Alcotest.test_case "promotion respects context order" `Quick
            test_promotion_never_crosses_own_context;
        ] );
      ( "noise",
        [
          Alcotest.test_case "lone receive discarded" `Quick test_noise_discard;
          Alcotest.test_case "skew not misclassified" `Quick test_skew_does_not_misclassify;
          Alcotest.test_case "beyond allowance is noise" `Quick test_skew_beyond_allowance_is_noise;
        ] );
      ( "window",
        [
          Alcotest.test_case "buffer scales with window" `Quick test_window_bounds_buffer;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "invalid window" `Quick test_invalid_window;
          qtest prop_ranker_complete_under_skew;
        ] );
    ]
