(* Unit tests for the benchmark's own pieces: the port-ceiling guard,
   the output digests, span self time and the meta round trip. *)

module Sim_time = Simnet.Sim_time
module Activity = Trace.Activity

let ep ip port = Simnet.Address.endpoint (Simnet.Address.ip_of_string ip) port
let flow a ap b bp = Simnet.Address.flow ~src:(ep a ap) ~dst:(ep b bp)

let act kind ts context flow size =
  { Activity.kind; timestamp = Sim_time.of_ns ts; context; message = { Activity.flow; size } }

let web = { Activity.host = "web"; program = "httpd"; pid = 10; tid = 10 }
let app = { Activity.host = "app"; program = "java"; pid = 20; tid = 21 }
let ms = 1_000_000

(* One request through web and app: client -> web:80 -> app:8009 and
   back, starting at [base] ns from client port [port]. *)
let request ~base ~port =
  let c2w = flow "10.0.0.1" port "10.0.1.1" 80 in
  let w2a = flow "10.0.1.1" (port + 1000) "10.0.2.1" 8009 in
  let back f = Simnet.Address.reverse f in
  ( [
      act Activity.Receive base web c2w 100;
      act Activity.Send (base + ms) web w2a 200;
      act Activity.Receive (base + (4 * ms)) web (back w2a) 300;
      act Activity.Send (base + (5 * ms)) web (back c2w) 400;
    ],
    [
      act Activity.Receive (base + (2 * ms)) app w2a 200;
      act Activity.Send (base + (3 * ms)) app (back w2a) 300;
    ] )

let correlate requests =
  let w = List.concat_map fst requests and a = List.concat_map snd requests in
  let logs = [ Trace.Log.of_list ~hostname:"web" w; Trace.Log.of_list ~hostname:"app" a ] in
  let transform = Core.Transform.config ~entry_points:[ ep "10.0.1.1" 80 ] () in
  (Core.Correlator.correlate (Core.Correlator.config ~transform ()) logs).Core.Correlator.cags

let two = [ request ~base:0 ~port:40000; request ~base:(10 * ms) ~port:40001 ]

let test_digest_repeats () =
  let a = correlate two and b = correlate two in
  Alcotest.(check int) "two paths" 2 (List.length a);
  Alcotest.(check string) "ordered" (Path_digest.ordered ~finished:a ~deformed:0)
    (Path_digest.ordered ~finished:b ~deformed:0);
  Alcotest.(check string) "canonical" (Path_digest.canonical ~finished:a ~deformed:0)
    (Path_digest.canonical ~finished:b ~deformed:0)

let test_digest_order () =
  let a = correlate two in
  let r = List.rev a in
  Alcotest.(check bool) "ordered sees output order" false
    (String.equal (Path_digest.ordered ~finished:a ~deformed:0) (Path_digest.ordered ~finished:r ~deformed:0));
  Alcotest.(check string) "canonical does not"
    (Path_digest.canonical ~finished:a ~deformed:0)
    (Path_digest.canonical ~finished:r ~deformed:0)

let test_digest_content () =
  let a = correlate two in
  let shifted = correlate [ request ~base:0 ~port:40000; request ~base:((10 * ms) + 1) ~port:40001 ] in
  let differ what f =
    Alcotest.(check bool) what false (String.equal (f ~finished:a ~deformed:0) (f ~finished:shifted ~deformed:0));
    Alcotest.(check bool) (what ^ " deformed") false
      (String.equal (f ~finished:a ~deformed:0) (f ~finished:a ~deformed:1))
  in
  differ "ordered" Path_digest.ordered;
  differ "canonical" Path_digest.canonical

let test_port_guard () =
  let good = [ Trace.Log.of_list ~hostname:"web" (fst (request ~base:0 ~port:40000)) ] in
  Alcotest.(check (result int string)) "max port" (Ok 41000) (Ports.check good);
  let over = [ Trace.Log.of_list ~hostname:"web" (fst (request ~base:0 ~port:66551)) ] in
  (match Ports.check over with
  | Ok _ -> Alcotest.fail "port 66551 accepted"
  | Error e ->
      let mentions s =
        let n = String.length s in
        let rec go i = i + n <= String.length e && (String.sub e i n = s || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the port" true (mentions "66551");
      Alcotest.(check bool) "names the limit" true (mentions "65535"));
  (* What the guard pre-empts: the encoder's interning refuses the port. *)
  match Trace.Arena.of_collection over with
  | _ -> Alcotest.fail "encoder accepted port 66551"
  | exception Invalid_argument _ -> ()

let span id ?parent start stop =
  { Spans.id; name = string_of_int id; start; stop; parent; args = [] }

let test_self_time () =
  let root = span 0 0.0 10.0 in
  let all =
    [
      root;
      span 1 ~parent:0 1.0 3.0;
      span 2 ~parent:0 2.0 5.0;
      (* Clipped to the parent's end. *)
      span 3 ~parent:0 8.0 12.0;
      (* A grandchild is covered by its parent span already. *)
      span 4 ~parent:1 1.5 2.5;
    ]
  in
  Alcotest.(check (float 1e-9)) "root self" 4.0 (Spans.self_time all root);
  Alcotest.(check (float 1e-9)) "child self" 1.0 (Spans.self_time all (List.nth all 1));
  Alcotest.(check (float 1e-9)) "leaf self" 3.0 (Spans.self_time all (List.nth all 2))

let test_spans_nest () =
  let sp = Spans.create () in
  Spans.with_span sp "outer" (fun () -> Spans.with_span sp "inner" ignore);
  (match Spans.spans sp with
  | [ o; i ] ->
      Alcotest.(check string) "outer first" "outer" o.Spans.name;
      Alcotest.(check (option int)) "inner's parent" (Some o.Spans.id) i.Spans.parent;
      Alcotest.(check bool) "inner within outer" true (i.Spans.start >= o.Spans.start && i.Spans.stop <= o.Spans.stop)
  | _ -> Alcotest.fail "expected two spans");
  match Core.Json.of_string (Spans.to_chrome_json sp) with
  | Ok j -> (
      match Core.Json.member "traceEvents" j with
      | Some (Core.Json.List l) -> Alcotest.(check int) "events" 2 (List.length l)
      | _ -> Alcotest.fail "no traceEvents")
  | Error e -> Alcotest.fail e

let test_meta_round_trip () =
  let w = List.hd Workload.all in
  let m =
    {
      Workload.records = 12;
      requests = 3;
      hosts = [ "web"; "app" ];
      max_port = 41000;
      window = Sim_time.ms 5;
      tolerance = Sim_time.us 500;
      transform =
        Core.Transform.config ~entry_points:[ ep "10.0.1.1" 80 ] ~drop_programs:[ "sshd" ]
          ~drop_ports:[ 22 ] ();
    }
  in
  match Workload.meta_of_json (Workload.meta_to_json w ~seed:5 m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      Alcotest.(check (list string)) "hosts" m.Workload.hosts m'.Workload.hosts;
      Alcotest.(check int) "records" m.Workload.records m'.Workload.records;
      Alcotest.(check int) "window" 5_000_000 (Sim_time.span_ns m'.Workload.window);
      Alcotest.(check int) "tolerance" 500_000 (Sim_time.span_ns m'.Workload.tolerance);
      Alcotest.(check (list string)) "entry points" [ "10.0.1.1:80" ]
        (List.map Workload.endpoint_to_string m'.Workload.transform.Core.Transform.entry_points);
      Alcotest.(check (list string)) "drop programs" [ "sshd" ]
        m'.Workload.transform.Core.Transform.drop_programs;
      Alcotest.(check (list int)) "drop ports" [ 22 ] m'.Workload.transform.Core.Transform.drop_ports

let () =
  Alcotest.run "ptbench"
    [
      ( "digest",
        [
          Alcotest.test_case "reps agree" `Quick test_digest_repeats;
          Alcotest.test_case "output order" `Quick test_digest_order;
          Alcotest.test_case "content and deformed count" `Quick test_digest_content;
        ] );
      ("ports", [ Alcotest.test_case "guard names the limit" `Quick test_port_guard ]);
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting and trace-event JSON" `Quick test_spans_nest;
        ] );
      ("workload", [ Alcotest.test_case "meta round trip" `Quick test_meta_round_trip ]);
    ]
