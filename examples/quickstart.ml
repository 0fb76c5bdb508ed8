(* Quickstart: trace one request through a hand-built two-tier service and
   print its causal path.

   This example uses only the public API, bottom-up: build a tiny cluster
   on the simulator, attach the TCP_TRACE probe, run one request, then feed
   the collected per-node logs to the Correlator and inspect the CAG.

     dune exec examples/quickstart.exe *)

module Address = Simnet.Address
module Engine = Simnet.Engine
module Messaging = Simnet.Messaging
module Node = Simnet.Node
module Tcp = Simnet.Tcp
module ST = Simnet.Sim_time

let () =
  (* -- a two-node cluster -- *)
  let engine = Engine.create () in
  let stack = Tcp.create_stack ~engine in
  let messaging = Messaging.create stack in
  let front =
    Node.create ~engine ~hostname:"front" ~ip:(Address.ip_of_string "10.0.0.1") ~cores:2 ()
  in
  let backend =
    Node.create ~engine ~hostname:"backend" ~ip:(Address.ip_of_string "10.0.0.2") ~cores:2
      ~clock:(Simnet.Clock.create ~skew:(ST.us 400) ()) (* clocks need not agree *)
      ()
  in
  let client_node =
    Node.create ~engine ~hostname:"laptop" ~ip:(Address.ip_of_string "10.0.0.9") ~cores:1 ()
  in

  (* -- the tracer: only the service nodes are instrumented -- *)
  let probe = Trace.Probe.attach ~stack ~only:[ "front"; "backend" ] () in
  Trace.Probe.enable probe;

  (* -- a backend worker echoing a 12 KiB result for each query -- *)
  let backend_main = Node.spawn backend ~program:"worker" in
  Tcp.listen stack backend ~port:9000 ~accept:(fun sock ->
      let proc = Node.spawn_thread backend ~of_:backend_main in
      let rec serve () =
        Messaging.recv_message messaging sock ~proc
          ~k:(fun m ->
            if m.Messaging.size = 0 then Tcp.close stack sock
            else
              Simnet.Cpu.submit (Node.cpu backend) ~work:(ST.ms 3) (fun () ->
                  Messaging.send_message messaging sock ~proc ~size:12_288 ~k:serve ()))
          ()
      in
      serve ());

  (* -- a front server: recv request, call the backend, respond -- *)
  Tcp.listen stack front ~port:80 ~accept:(fun client_sock ->
      let proc = Node.spawn front ~program:"frontd" in
      Messaging.recv_message messaging client_sock ~proc
        ~k:(fun _request ->
          Tcp.connect stack ~node:front ~proc
            ~dst:(Address.endpoint (Node.ip backend) 9000)
            ~k:(fun back_sock ->
              Messaging.send_message messaging back_sock ~proc ~size:200
                ~k:(fun () ->
                    Messaging.recv_message messaging back_sock ~proc
                      ~k:(fun result ->
                          Simnet.Cpu.submit (Node.cpu front) ~work:(ST.ms 2) (fun () ->
                              Messaging.send_message messaging client_sock ~proc
                                ~size:(result.Messaging.size + 800)
                                ~k:(fun () -> ())
                                ()))
                      ())
                ()))
        ());

  (* -- one client request -- *)
  let client = Node.spawn client_node ~program:"curl" in
  Tcp.connect stack ~node:client_node ~proc:client
    ~dst:(Address.endpoint (Node.ip front) 80)
    ~k:(fun sock ->
      Messaging.send_message messaging sock ~proc:client ~size:300
        ~k:(fun () -> Messaging.recv_message messaging sock ~proc:client ~k:(fun _ -> ()) ())
        ());
  Engine.run engine;

  (* -- correlate the collected logs into causal paths -- *)
  Format.printf "captured %d activities on %d nodes@.@." (Trace.Probe.activity_count probe)
    (List.length (Trace.Probe.logs probe));
  let transform =
    Core.Transform.config ~entry_points:[ Address.endpoint (Node.ip front) 80 ] ()
  in
  let result =
    Core.Correlator.correlate (Core.Correlator.config ~transform ()) (Trace.Probe.logs probe)
  in
  match result.Core.Correlator.cags with
  | [ cag ] ->
      Format.printf "%a@.@." Core.Cag.pp cag;
      Format.printf "route: %s@." (Core.Pattern.name_of cag);
      Format.printf "end-to-end: %a@.@." ST.pp_span (Core.Cag.duration cag);
      Format.printf
        "component breakdown (cross-node shares absorb the backend's +400us clock skew - the \
         paper accepts the same inaccuracy; intra-node shares and the total are exact):@.";
      List.iter
        (fun (c : Core.Analysis.component_stat) ->
          Format.printf "  %-16s %5.1f%%@." (Core.Latency.component_label c.comp)
            (100.0 *. c.share))
        (List.hd (Core.Aggregate.profiles_of_cags [ cag ])).Core.Analysis.components;
      Format.printf "@.graphviz (pipe to `dot -Tsvg`):@.%s@." (Core.Cag.to_dot cag)
  | cags -> Format.printf "expected one causal path, got %d@." (List.length cags)
