(* Shared constructors for hand-built activity streams. *)

module Activity = Trace.Activity
module Address = Simnet.Address
module Sim_time = Simnet.Sim_time

let ip = Address.ip_of_string

let ep ip_s port = Address.endpoint (ip ip_s) port

let flow src_ip src_port dst_ip dst_port =
  Address.flow ~src:(ep src_ip src_port) ~dst:(ep dst_ip dst_port)

let ctx ?(host = "node1") ?(program = "prog") ?(pid = 100) ?(tid = 100) () =
  { Activity.host; program; pid; tid }

let act ~kind ~ts ~ctx:context ~flow ~size =
  {
    Activity.kind;
    timestamp = Sim_time.of_ns ts;
    context;
    message = { Activity.flow; size };
  }

(* Contexts of a canonical two-node pair. *)
let web_ctx = ctx ~host:"web" ~program:"httpd" ~pid:10 ~tid:10 ()
let app_ctx = ctx ~host:"app" ~program:"java" ~pid:20 ~tid:21 ()
let db_ctx = ctx ~host:"db" ~program:"mysqld" ~pid:30 ~tid:31 ()

let client_web_flow = flow "10.0.0.1" 40000 "10.0.1.1" 80
let web_client_flow = Address.reverse client_web_flow
let web_app_flow = flow "10.0.1.1" 41000 "10.0.2.1" 8009
let app_web_flow = Address.reverse web_app_flow
let app_db_flow = flow "10.0.2.1" 42000 "10.0.3.1" 3306
let db_app_flow = Address.reverse app_db_flow

(* A complete, well-formed request trace: BEGIN at web, call to app, call to
   db, replies, END — one activity per message. Timestamps offset by [base]
   nanoseconds; [wskew]/[askew]/[dskew] shift each node's local clock. *)
let simple_request ?(base = 0) ?(wskew = 0) ?(askew = 0) ?(dskew = 0) () =
  let w t = base + t + wskew and a t = base + t + askew and d t = base + t + dskew in
  ( [
      act ~kind:Activity.Begin ~ts:(w 0) ~ctx:web_ctx ~flow:client_web_flow ~size:400;
      act ~kind:Activity.Send ~ts:(w 1_000_000) ~ctx:web_ctx ~flow:web_app_flow ~size:500;
      act ~kind:Activity.Receive ~ts:(w 8_000_000) ~ctx:web_ctx ~flow:app_web_flow ~size:2000;
      act ~kind:Activity.End_ ~ts:(w 9_000_000) ~ctx:web_ctx ~flow:web_client_flow ~size:2400;
    ],
    [
      act ~kind:Activity.Receive ~ts:(a 2_000_000) ~ctx:app_ctx ~flow:web_app_flow ~size:500;
      act ~kind:Activity.Send ~ts:(a 3_000_000) ~ctx:app_ctx ~flow:app_db_flow ~size:300;
      act ~kind:Activity.Receive ~ts:(a 6_000_000) ~ctx:app_ctx ~flow:db_app_flow ~size:1500;
      act ~kind:Activity.Send ~ts:(a 7_000_000) ~ctx:app_ctx ~flow:app_web_flow ~size:2000;
    ],
    [
      act ~kind:Activity.Receive ~ts:(d 4_000_000) ~ctx:db_ctx ~flow:app_db_flow ~size:300;
      act ~kind:Activity.Send ~ts:(d 5_000_000) ~ctx:db_ctx ~flow:db_app_flow ~size:1500;
    ] )

let logs_of_request ?base ?wskew ?askew ?dskew () =
  let w, a, d = simple_request ?base ?wskew ?askew ?dskew () in
  [
    Trace.Log.of_list ~hostname:"web" w;
    Trace.Log.of_list ~hostname:"app" a;
    Trace.Log.of_list ~hostname:"db" d;
  ]

let correlate_raw ?(window = Sim_time.ms 10) ?skew_allowance logs =
  let engine = Core.Cag_engine.create () in
  let ranker =
    Core.Ranker.create ~window ?skew_allowance
      ~has_mmap_send:(Core.Cag_engine.has_mmap_send engine)
      logs
  in
  let rec loop () =
    match Core.Ranker.rank ranker with
    | None -> ()
    | Some a ->
        Core.Cag_engine.step engine a;
        loop ()
  in
  loop ();
  (engine, ranker)

(* The BEGIN/END transform over record lists, for the record-fed
   baselines and adapters under test. *)
let transform_logs cfg logs =
  Trace.Arena.to_collection (Core.Transform.apply_native cfg (Trace.Arena.of_collection logs))

(* One record through the transform's row classification: [None] when
   filtered out, else the record with its rewritten kind. *)
let transform_record cfg (a : Activity.t) =
  let arena = Trace.Arena.create ~capacity:1 ~host:a.context.host () in
  Trace.Arena.append_activity arena a;
  Option.map
    (fun kind -> { a with kind })
    (Activity.kind_of_code (Core.Transform.classify_row (Core.Transform.memo cfg) arena 0))

(* Feed one record to an online run as a one-row arena, in whatever order
   the caller chooses: the deliberately disordered feeds the quarantine
   and re-sort tests need. *)
let observe_record online (a : Activity.t) =
  let arena = Trace.Arena.create ~capacity:1 ~host:a.context.host () in
  Trace.Arena.append_activity arena a;
  Core.Online.observe_arena online arena

let check_valid cag =
  match Core.Cag.validate cag with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid CAG: %s" e

let contains s sub =
  let n = String.length sub in
  let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
  loop 0

let span_testable =
  Alcotest.testable Sim_time.pp_span (fun a b -> Sim_time.compare_span a b = 0)

(* A bundle pack source for host arenas: put in the canonical row order,
   correlated once. *)
let run_source ?jobs config arenas =
  let arenas = Store.Query.merge_native [ arenas ] in
  let r = Core.Shard.correlate_arena ?jobs config arenas in
  `Run (arenas, r.Core.Correlator.cags, r.Core.Correlator.deformed)
