(* Tests for the deque and the component activity graph structure. *)

module H = Test_helpers.Helpers
module Deque = Core.Deque
module Cag = Core.Cag
module Activity = Trace.Activity
module Sim_time = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

(* ---- Deque ---- *)

let test_deque_fifo () =
  let d = Deque.create () in
  Alcotest.(check bool) "empty" true (Deque.is_empty d);
  List.iter (Deque.push_back d) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Deque.length d);
  Alcotest.(check (option int)) "peek" (Some 1) (Deque.peek_front d);
  let a = Deque.pop_front d in
  let b = Deque.pop_front d in
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] [ a; b ];
  Alcotest.(check int) "remaining" 1 (Deque.length d)

let test_deque_push_front () =
  let d = Deque.create () in
  Deque.push_back d 2;
  Deque.push_front d 1;
  Deque.push_back d 3;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Deque.to_list d)

let test_deque_promote () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 10; 20; 30; 40 ];
  Deque.promote d 2;
  Alcotest.(check (list int)) "30 promoted" [ 30; 10; 20; 40 ] (Deque.to_list d);
  Deque.promote d 0;
  Alcotest.(check (list int)) "promote head is a no-op" [ 30; 10; 20; 40 ] (Deque.to_list d)

let test_deque_promote_swap () =
  (* The paper's Fig. 6 head swap is promote at index 1. *)
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 1; 2 ];
  Deque.promote d 1;
  Alcotest.(check (list int)) "swapped" [ 2; 1 ] (Deque.to_list d)

let test_deque_find_get () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 5; 6; 7 ];
  Alcotest.(check (option int)) "found" (Some 2) (Deque.find_index d (fun x -> x = 7));
  Alcotest.(check (option int)) "missing" None (Deque.find_index d (fun x -> x = 9));
  Alcotest.(check int) "get" 6 (Deque.get d 1);
  (match Deque.get d 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oob accepted");
  match Deque.pop_front (Deque.create ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pop accepted"

let test_deque_wraparound () =
  (* Force head wrap by interleaving push/pop beyond initial capacity. *)
  let d = Deque.create () in
  for i = 0 to 99 do
    Deque.push_back d i;
    if i mod 2 = 1 then ignore (Deque.pop_front d)
  done;
  Alcotest.(check int) "length" 50 (Deque.length d);
  Alcotest.(check (option int)) "front" (Some 50) (Deque.peek_front d);
  Alcotest.(check int) "back via get" 99 (Deque.get d 49)

let prop_deque_model =
  (* Model-based: a deque fed random ops behaves like a list. *)
  QCheck.Test.make ~name:"deque behaves like a list model" ~count:300
    QCheck.(list (int_range 0 4))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              incr counter;
              Deque.push_back d !counter;
              model := !model @ [ !counter ]
          | 1 ->
              incr counter;
              Deque.push_front d !counter;
              model := !counter :: !model
          | 2 -> (
              match !model with
              | [] -> ()
              | x :: rest ->
                  if Deque.pop_front d <> x then ok := false;
                  model := rest)
          | 3 ->
              if !model <> [] then begin
                let i = List.length !model / 2 in
                Deque.promote d i;
                let x = List.nth !model i in
                model := x :: List.filteri (fun j _ -> j <> i) !model
              end
          | _ -> if Deque.to_list d <> !model then ok := false)
        ops;
      !ok && Deque.to_list d = !model)

(* ---- CAG construction ---- *)

let mk_send ts = H.act ~kind:Activity.Send ~ts ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:100
let mk_recv ts = H.act ~kind:Activity.Receive ~ts ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:100
let mk_begin ts = H.act ~kind:Activity.Begin ~ts ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:50
let mk_end ts = H.act ~kind:Activity.End_ ~ts ~ctx:H.web_ctx ~flow:H.web_client_flow ~size:70

let test_cag_build_minimal () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  let cag = Cag.Builder.create ~cag_id:1 root in
  let s = Cag.Builder.fresh_vertex (mk_send 10) in
  Cag.Builder.adopt cag s;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:s;
  let r = Cag.Builder.fresh_vertex (mk_recv 20) in
  Cag.Builder.adopt cag r;
  Cag.Builder.add_edge Cag.Message_edge ~parent:s ~child:r;
  Alcotest.(check int) "size" 3 (Cag.size cag);
  Alcotest.(check bool) "not finished" false (Cag.is_finished cag);
  H.check_valid cag;
  Alcotest.(check int) "edges" 2 (List.length (Cag.edges cag));
  Alcotest.(check int) "contexts" 2 (List.length (Cag.contexts cag))

let test_cag_duration () =
  let root = Cag.Builder.fresh_vertex (mk_begin 100) in
  let cag = Cag.Builder.create ~cag_id:2 root in
  let e = Cag.Builder.fresh_vertex (mk_end 900) in
  Cag.Builder.adopt cag e;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:e;
  Cag.Builder.finish cag;
  Alcotest.(check bool) "finished" true (Cag.is_finished cag);
  Alcotest.(check int) "duration" 800 (Sim_time.span_ns (Cag.duration cag));
  H.check_valid cag

let test_cag_two_parent_rule () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  let cag = Cag.Builder.create ~cag_id:3 root in
  let s = Cag.Builder.fresh_vertex (mk_send 10) in
  Cag.Builder.adopt cag s;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:s;
  (* a RECEIVE may get both a message and a context parent *)
  let prev =
    Cag.Builder.fresh_vertex
      (H.act ~kind:Activity.Send ~ts:5 ~ctx:H.app_ctx ~flow:H.app_db_flow ~size:10)
  in
  Cag.Builder.adopt cag prev;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:prev;
  let r = Cag.Builder.fresh_vertex (mk_recv 20) in
  Cag.Builder.adopt cag r;
  Cag.Builder.add_edge Cag.Message_edge ~parent:s ~child:r;
  Cag.Builder.add_edge Cag.Context_edge ~parent:prev ~child:r;
  Alcotest.(check int) "two parents" 2 (List.length r.Cag.parents);
  H.check_valid cag;
  (* a third parent must be rejected *)
  match Cag.Builder.add_edge Cag.Message_edge ~parent:root ~child:r with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "third parent accepted"

let test_cag_non_receive_single_parent () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  let cag = Cag.Builder.create ~cag_id:4 root in
  let s = Cag.Builder.fresh_vertex (mk_send 10) in
  Cag.Builder.adopt cag s;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:s;
  let other = Cag.Builder.fresh_vertex (mk_send 11) in
  Cag.Builder.adopt cag other;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:other;
  match Cag.Builder.add_edge Cag.Message_edge ~parent:other ~child:s with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "two parents on a SEND accepted"

let test_cag_double_adopt_rejected () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  let cag = Cag.Builder.create ~cag_id:5 root in
  let v = Cag.Builder.fresh_vertex (mk_send 1) in
  Cag.Builder.adopt cag v;
  match Cag.Builder.adopt cag v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double adopt accepted"

let test_cag_grow_and_consume () =
  let s = Cag.Builder.fresh_vertex (mk_send 0) in
  Alcotest.(check int) "initial unreceived" 100 s.Cag.unreceived;
  Cag.Builder.grow_send s 50;
  Alcotest.(check int) "grown size" 150 s.Cag.activity.Activity.message.size;
  Alcotest.(check int) "grown unreceived" 150 s.Cag.unreceived;
  Alcotest.(check int) "after consume" 30 (Cag.Builder.consume s 120);
  Alcotest.(check int) "consume to zero" 0 (Cag.Builder.consume s 30)

let test_cag_validate_catches_unreachable () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  let cag = Cag.Builder.create ~cag_id:6 root in
  let lone = Cag.Builder.fresh_vertex (mk_send 10) in
  Cag.Builder.adopt cag lone;
  (* no edge from root: parentless non-root must be flagged *)
  match Cag.validate cag with
  | Ok () -> Alcotest.fail "unreachable vertex accepted"
  | Error _ -> ()

(* A chain long enough to grow the vertex array twice: each vertex sits
   at its adopt index, and an orphan has no position. *)
let test_cag_positions () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  Alcotest.(check int) "orphan root" (-1) root.Cag.pos;
  let cag = Cag.Builder.create ~cag_id:7 root in
  let rec chain parent acc i =
    if i > 40 then List.rev acc
    else begin
      let v = Cag.Builder.fresh_vertex (mk_send (10 * i)) in
      Cag.Builder.adopt cag v;
      Cag.Builder.add_edge Cag.Context_edge ~parent ~child:v;
      chain v (v :: acc) (i + 1)
    end
  in
  let adopted = root :: chain root [] 1 in
  Alcotest.(check int) "size" 41 (Cag.size cag);
  List.iteri
    (fun i (v : Cag.vertex) -> Alcotest.(check int) (Printf.sprintf "vertex %d" i) i v.Cag.pos)
    adopted;
  Alcotest.(check bool) "vertices in adopt order" true
    (List.for_all2 ( == ) adopted (Cag.vertices cag));
  H.check_valid cag;
  let orphan = Cag.Builder.fresh_vertex (mk_send 999) in
  Alcotest.(check int) "orphan" (-1) orphan.Cag.pos

let test_cag_validate_catches_backward_edge () =
  let root = Cag.Builder.fresh_vertex (mk_begin 0) in
  let cag = Cag.Builder.create ~cag_id:8 root in
  let a = Cag.Builder.fresh_vertex (mk_send 10) in
  Cag.Builder.adopt cag a;
  let b = Cag.Builder.fresh_vertex (mk_send 20) in
  Cag.Builder.adopt cag b;
  Cag.Builder.add_edge Cag.Context_edge ~parent:root ~child:b;
  (* a's parent sits after it *)
  Cag.Builder.add_edge Cag.Context_edge ~parent:b ~child:a;
  match Cag.validate cag with
  | Ok () -> Alcotest.fail "parent at a later position accepted"
  | Error e -> Alcotest.(check bool) e true (H.contains e "causal order")

let test_cag_to_dot () =
  let w, a, d = H.simple_request () in
  let logs = H.logs_of_request () in
  ignore (w, a, d);
  let engine, _ = H.correlate_raw logs in
  match Core.Cag_engine.finished engine with
  | [ cag ] ->
      let dot = Cag.to_dot cag in
      Alcotest.(check bool) "digraph" true
        (String.length dot > 20 && String.sub dot 0 7 = "digraph");
      Alcotest.(check bool) "has message edge style" true (H.contains dot "style=dashed")
  | _ -> Alcotest.fail "one CAG expected"

let () =
  Alcotest.run "cag"
    [
      ( "deque",
        [
          Alcotest.test_case "fifo" `Quick test_deque_fifo;
          Alcotest.test_case "push_front" `Quick test_deque_push_front;
          Alcotest.test_case "promote" `Quick test_deque_promote;
          Alcotest.test_case "promote as head swap" `Quick test_deque_promote_swap;
          Alcotest.test_case "find/get/errors" `Quick test_deque_find_get;
          Alcotest.test_case "ring wraparound" `Quick test_deque_wraparound;
          qtest prop_deque_model;
        ] );
      ( "cag",
        [
          Alcotest.test_case "minimal build" `Quick test_cag_build_minimal;
          Alcotest.test_case "duration" `Quick test_cag_duration;
          Alcotest.test_case "two-parent rule" `Quick test_cag_two_parent_rule;
          Alcotest.test_case "single parent for non-receive" `Quick
            test_cag_non_receive_single_parent;
          Alcotest.test_case "double adopt rejected" `Quick test_cag_double_adopt_rejected;
          Alcotest.test_case "grow and consume" `Quick test_cag_grow_and_consume;
          Alcotest.test_case "validate unreachable" `Quick test_cag_validate_catches_unreachable;
          Alcotest.test_case "positions in adopt order" `Quick test_cag_positions;
          Alcotest.test_case "validate backward edge" `Quick
            test_cag_validate_catches_backward_edge;
          Alcotest.test_case "graphviz output" `Quick test_cag_to_dot;
        ] );
    ]
