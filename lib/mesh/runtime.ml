(* Compile a Spec.t onto Simnet and run it with full oracle coverage.

   Execution model, mirroring the real concurrent-server catalogue:
   every tier replica is one node running a thread-per-connection server;
   threads keep a pool of persistent connections per downstream replica
   and never pipeline two logical calls on one connection (a retry or a
   concurrent sibling always dials a separate pooled connection, so each
   logical call is its own flow). A handler records its ground-truth
   visit around exactly the interval the kernel probe can see: first
   request byte received to last response byte sent.

   The one discipline that keeps finished CAGs clean: a caller never
   responds upstream before draining every response it is owed, including
   late responses to timed-out attempts — so no activity of a request
   ever trails its END. *)

module Address = Simnet.Address
module Clock = Simnet.Clock
module Cpu = Simnet.Cpu
module Engine = Simnet.Engine
module Messaging = Simnet.Messaging
module Node = Simnet.Node
module Rng = Simnet.Rng
module Sim_time = Simnet.Sim_time
module Tcp = Simnet.Tcp
module Activity = Trace.Activity
module Ground_truth = Trace.Ground_truth
module Faults = Tiersim.Faults
module Naming = Tiersim.Naming

type Messaging.payload += Req of { id : int; key : int }

type stats = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable retries : int;  (* timeout-triggered duplicate attempts *)
  mutable async_jobs : int;
  served : (string, int) Hashtbl.t;  (* hostname -> requests handled *)
}

type built = {
  engine : Engine.t;
  probe : Trace.Probe.t;
  gt : Ground_truth.t;
  entries : Address.endpoint list;
  hostnames : string list;
  stats : stats;
  metrics : Tiersim.Metrics.t;
  spec : Spec.t;
}

let served built =
  Hashtbl.fold (fun h n acc -> (h, n) :: acc) built.stats.served []
  |> List.sort compare

let build (spec : Spec.t) =
  Spec.validate spec;
  let engine = Engine.create () in
  let stack = Tcp.create_stack ~engine in
  let messaging = Messaging.create stack in
  let rng = Rng.create ~seed:spec.seed in
  let gt = Ground_truth.create () in
  let stats =
    { cache_hits = 0; cache_misses = 0; retries = 0; async_jobs = 0; served = Hashtbl.create 16 }
  in
  let metrics = Tiersim.Metrics.create () in
  let tiers = Array.of_list spec.tiers in
  let index_of =
    let h = Hashtbl.create 16 in
    Array.iteri (fun i (t : Spec.tier) -> Hashtbl.replace h t.name i) tiers;
    fun name -> Hashtbl.find h name
  in
  let slow_factor tier_name replica =
    List.fold_left
      (fun f -> function
        | Faults.Tier_slow { tier; factor } when String.equal tier tier_name -> f *. factor
        | Faults.Replica_slow { tier; replica = r; factor }
          when String.equal tier tier_name && r = replica -> f *. factor
        | _ -> f)
      1.0 spec.faults
  in
  let hot_key =
    List.find_map
      (function Faults.Key_skew { hot_key; share; _ } -> Some (hot_key, share) | _ -> None)
      spec.faults
  in
  let skew_of (t : Spec.tier) r =
    let mag = Sim_time.span_ns t.skew in
    if mag = 0 then Sim_time.span_zero
    else
      Sim_time.ns
        (Rng.int (Rng.split rng (Printf.sprintf "skew-%s-%d" t.name r)) (2 * mag) - mag)
  in
  let nodes =
    Array.mapi
      (fun ti (t : Spec.tier) ->
        Array.init t.replicas (fun r ->
            Node.create ~engine
              ~hostname:(Naming.replica_host ~tier:t.name ~index:r)
              ~ip:(Address.ip_of_string (Naming.mesh_tier_ip ~tier_index:ti ~replica:r))
              ~cores:t.cores
              ~clock:(Clock.create ~skew:(skew_of t r) ())
              ()))
      tiers
  in
  let port_of ti = 8000 + ti in
  let endpoint_of ti r = Address.endpoint (Node.ip nodes.(ti).(r)) (port_of ti) in
  let entry_idx = index_of spec.entry in
  let entries = List.init tiers.(entry_idx).replicas (fun r -> endpoint_of entry_idx r) in
  let hostnames =
    Array.to_list nodes |> List.concat_map (fun a -> Array.to_list (Array.map Node.hostname a))
  in
  let probe = Trace.Probe.attach ~stack ~only:hostnames () in
  Trace.Probe.enable probe;
  let compute_of ti r =
    let t = tiers.(ti) in
    Sim_time.span_scale (slow_factor t.name r) t.compute
  in
  let lb_counters = Array.make (Array.length tiers) 0 in
  let bump_served host =
    Hashtbl.replace stats.served host
      (1 + Option.value ~default:0 (Hashtbl.find_opt stats.served host))
  in
  let context node (proc : Simnet.Proc.t) =
    {
      Activity.host = Node.hostname node;
      program = proc.Simnet.Proc.program;
      pid = proc.pid;
      tid = proc.tid;
    }
  in
  (* One logical downstream call: pick a replica (key routing, shifted by
     attempt number so a retry lands on the next partition), dial a free
     pooled connection, send, arm the retry timer, and join on *every*
     response sent before continuing. *)
  let call_one ~node ~proc ~pool ~id ~key ?route_override ~retry target k =
    let tti = index_of target in
    let replicas = tiers.(tti).replicas in
    let base =
      match route_override with
      | Some n -> n mod replicas
      | None -> Spec.route ~replicas ~key
    in
    let max_attempts = match retry with None -> 1 | Some p -> 1 + p.Spec.max_retries in
    let arrived = Array.make max_attempts false in
    let sent = ref 0 and got = ref 0 and joined = ref false in
    let acquire tr k =
      let cell =
        match Hashtbl.find_opt pool (tti, tr) with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace pool (tti, tr) c;
            c
      in
      match !cell with
      | conn :: rest ->
          cell := rest;
          k conn
      | [] -> Tcp.connect stack ~node ~proc ~dst:(endpoint_of tti tr) ~k
    in
    let release tr conn =
      match Hashtbl.find_opt pool (tti, tr) with
      | Some cell -> cell := conn :: !cell
      | None -> Hashtbl.replace pool (tti, tr) (ref [ conn ])
    in
    let rec attempt i =
      let tr = (base + i) mod replicas in
      incr sent;
      if i > 0 then stats.retries <- stats.retries + 1;
      acquire tr (fun conn ->
          Messaging.send_message messaging conn ~proc ~size:spec.request_size
            ~chunk:spec.chunk
            ~payload:(Req { id; key })
            ~k:(fun () ->
              (match retry with
              | Some p when i < p.Spec.max_retries ->
                  ignore
                    (Engine.schedule_after engine ~delay:p.Spec.timeout (fun () ->
                         if not arrived.(i) then
                           ignore
                             (Engine.schedule_after engine ~delay:p.Spec.backoff
                                (fun () -> if not arrived.(i) then attempt (i + 1)))))
              | _ -> ());
              Messaging.recv_message messaging conn ~proc
                ~k:(fun (_ : Messaging.msg) ->
                  arrived.(i) <- true;
                  release tr conn;
                  incr got;
                  if !got = !sent && not !joined then begin
                    joined := true;
                    k ()
                  end)
                ())
            ())
    in
    attempt 0
  in
  let run_group ~node ~proc ~pool ~id ~key (g : Spec.call_group) k =
    match g.mode with
    | Spec.Sequential ->
        let rec loop = function
          | [] -> k ()
          | tgt :: rest ->
              call_one ~node ~proc ~pool ~id ~key ~retry:g.retry tgt (fun () -> loop rest)
        in
        loop g.targets
    | Spec.Concurrent ->
        let n = List.length g.targets in
        let done_ = ref 0 in
        List.iter
          (fun tgt ->
            call_one ~node ~proc ~pool ~id ~key ~retry:g.retry tgt (fun () ->
                incr done_;
                if !done_ = n then k ()))
          g.targets
  in
  let run_groups ~node ~proc ~pool ~id ~key groups k =
    let rec loop = function
      | [] -> k ()
      | g :: rest -> run_group ~node ~proc ~pool ~id ~key g (fun () -> loop rest)
    in
    loop groups
  in
  (* Thread-per-connection server for one tier replica. *)
  let serve ti r sock proc =
    let t = tiers.(ti) in
    let node = nodes.(ti).(r) in
    let pool : (int * int, Tcp.socket list ref) Hashtbl.t = Hashtbl.create 4 in
    let close_all () =
      Hashtbl.iter (fun _ cell -> List.iter (fun c -> Tcp.close stack c) !cell) pool;
      Tcp.close stack sock
    in
    let respond ~id size k =
      Messaging.send_message messaging sock ~proc ~size ~chunk:spec.chunk ~k ();
      ignore id
    in
    let rec next () =
      Messaging.recv_message messaging sock ~proc
        ~k:(fun (m : Messaging.msg) ->
          if m.size = 0 then close_all ()
          else
            match m.payload with
            | Some (Req { id; key }) -> begin
                bump_served (Node.hostname node);
                let ctx = context node proc in
                Ground_truth.begin_visit gt ~id ~kind:spec.name ~context:ctx
                  ~ts:(Node.local_time node);
                let finish () =
                  Ground_truth.end_visit gt ~id ~context:ctx ~ts:(Node.local_time node);
                  respond ~id t.response_size next
                in
                match t.role with
                | Spec.Service ->
                    Cpu.submit (Node.cpu node) ~work:(compute_of ti r) (fun () ->
                        run_groups ~node ~proc ~pool ~id ~key t.calls (fun () ->
                            Cpu.submit (Node.cpu node)
                              ~work:(Sim_time.span_scale 0.25 (compute_of ti r))
                              finish))
                | Spec.Cache { hit_ratio; backing; backing_retry } ->
                    Cpu.submit (Node.cpu node) ~work:(compute_of ti r) (fun () ->
                        if Spec.cache_hit ~hit_ratio ~key then begin
                          stats.cache_hits <- stats.cache_hits + 1;
                          finish ()
                        end
                        else begin
                          stats.cache_misses <- stats.cache_misses + 1;
                          call_one ~node ~proc ~pool ~id ~key ~retry:backing_retry backing
                            finish
                        end)
                | Spec.Load_balancer { backend } ->
                    Cpu.submit (Node.cpu node) ~work:(compute_of ti r) (fun () ->
                        let n = lb_counters.(ti) in
                        lb_counters.(ti) <- n + 1;
                        call_one ~node ~proc ~pool ~id ~key ~route_override:n ~retry:None
                          backend finish)
                | Spec.Queue_worker ->
                    stats.async_jobs <- stats.async_jobs + 1;
                    (* Ack first, work after: the visit covers only the
                       synchronous hop the tracer can see; the deferred
                       work makes no syscalls but delays later jobs. *)
                    Cpu.submit (Node.cpu node)
                      ~work:(Sim_time.span_scale 0.1 (compute_of ti r))
                      (fun () ->
                        Ground_truth.end_visit gt ~id ~context:ctx
                          ~ts:(Node.local_time node);
                        respond ~id t.response_size (fun () ->
                            Cpu.submit (Node.cpu node) ~work:(compute_of ti r) next))
              end
            | Some _ | None -> failwith "mesh: unexpected payload")
        ()
    in
    next ()
  in
  Array.iteri
    (fun ti (t : Spec.tier) ->
      Array.iteri
        (fun r node ->
          let main = Node.spawn node ~program:t.name in
          Tcp.listen stack node ~port:(port_of ti) ~accept:(fun sock ->
              let proc = Node.spawn_thread node ~of_:main in
              serve ti r sock proc))
        nodes.(ti))
    tiers;
  (* Closed-loop clients on one load-generator node, each pinned to an
     entry replica. [sync_start] fires them all at the same instant. *)
  let client_node =
    Node.create ~engine ~hostname:"meshclients"
      ~ip:(Address.ip_of_string Naming.mesh_clients_ip)
      ~cores:4 ()
  in
  let next_id = ref 0 in
  for c = 0 to spec.clients - 1 do
    let crng = Rng.split rng (Printf.sprintf "client-%d" c) in
    let proc = Node.spawn client_node ~program:"loadgen" in
    let entry_replica = c mod tiers.(entry_idx).replicas in
    let start =
      if spec.sync_start then Sim_time.ms 1
      else Rng.uniform_span crng ~lo:(Sim_time.ms 1) ~hi:(Sim_time.ms 50)
    in
    ignore
      (Engine.schedule_after engine ~delay:start (fun () ->
           Tcp.connect stack ~node:client_node ~proc
             ~dst:(endpoint_of entry_idx entry_replica)
             ~k:(fun sock ->
               let rec session remaining =
                 if remaining = 0 then Tcp.close stack sock
                 else begin
                   let id = !next_id in
                   incr next_id;
                   let key =
                     match hot_key with
                     | Some (hk, share) when Rng.bernoulli crng ~p:share -> hk
                     | _ -> Rng.int crng spec.keys
                   in
                   let started = Engine.now engine in
                   (* Entry requests are single-send: small HTTP-like
                      requests fit one syscall (DESIGN.md assumption #2). *)
                   Messaging.send_message messaging sock ~proc ~size:spec.request_size
                     ~chunk:(max spec.chunk spec.request_size)
                     ~payload:(Req { id; key })
                     ~k:(fun () ->
                       Messaging.recv_message messaging sock ~proc
                         ~k:(fun (m : Messaging.msg) ->
                           if m.size = 0 then ()
                           else begin
                             Ground_truth.complete gt ~id;
                             Tiersim.Metrics.record metrics
                               ~finished_at:(Engine.now engine)
                               ~rt:(Sim_time.diff (Engine.now engine) started)
                               ~kind:spec.Spec.name;
                             if Sim_time.span_ns spec.think_mean = 0 then
                               session (remaining - 1)
                             else
                               let think =
                                 Rng.exponential_span crng ~mean:spec.think_mean
                               in
                               ignore
                                 (Engine.schedule_after engine ~delay:think (fun () ->
                                      session (remaining - 1)))
                           end)
                         ())
                     ()
                 end
               in
               session spec.requests_per_client)))
  done;
  { engine; probe; gt; entries; hostnames; stats; metrics; spec }

(* ---- correlation + scoring ---- *)

type score = {
  result : Core.Correlator.result;
  verdict : Core.Accuracy.verdict;
  patterns : int;
  records : int;
  digest : string;
}

let pattern_count cags = List.length (Core.Pattern.classify cags)

let score_logs ?(window = Sim_time.ms 5) ~entries ~gt logs =
  let transform = Core.Transform.config ~entry_points:entries () in
  let cfg = Core.Correlator.config ~transform ~window () in
  let arenas = Trace.Arena.of_collection logs in
  let result = Core.Correlator.correlate_arena cfg arenas in
  (* The oracle stamps visits from application code, which on a contended
     node runs only after the recv continuation clears the CPU run queue;
     the probe stamps the same recv inside the kernel at delivery. The
     interval tolerance must dominate that scheduling lag (hundreds of
     microseconds under a thundering herd), and 2 ms is still well below
     the millisecond-scale visit spans that distinguish requests sharing
     a context. *)
  let verdict =
    Core.Accuracy.check ~tolerance:(Sim_time.ms 2) ~ground_truth:gt
      result.Core.Correlator.cags
  in
  {
    result;
    verdict;
    patterns = pattern_count result.Core.Correlator.cags;
    records = Trace.Arena.total arenas;
    digest = Core.Shard.digest result;
  }

let run ?window spec =
  let b = build spec in
  Engine.run b.engine;
  let s = score_logs ?window ~entries:b.entries ~gt:b.gt (Trace.Probe.logs b.probe) in
  (b, s)
