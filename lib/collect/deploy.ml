module Engine = Simnet.Engine
module Node = Simnet.Node
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address
module Service = Tiersim.Service
module Faults = Tiersim.Faults
module R = Telemetry.Registry

type config = { agent : Agent.config; port : int }

let default_config = { agent = Agent.default_config; port = 7441 }

let install_replica ~telemetry ~agent ~port ~on_arena ~replica svc =
  let engine = Service.engine svc in
  let wire = Wire.create (Service.stack svc) in
  (* The collector is an extra, untraced machine on the replica's own
     network. *)
  let node =
    Node.create ~engine
      ~hostname:(Printf.sprintf "collect%d" (replica + 1))
      ~ip:(Address.ip_of_string (Printf.sprintf "10.%d.9.1" replica))
      ~cores:2 ()
  in
  let collector = Collector.create ~telemetry ~on_arena ~wire ~node ~port () in
  let probe = Service.probe svc in
  let agents =
    List.map
      (fun node ->
        let a =
          Agent.create ~telemetry ~config:agent ~wire ~node
            ~collector:(Collector.endpoint collector) ()
        in
        Agent.attach a probe;
        Agent.start a;
        a)
      [ Service.web_node svc; Service.app_node svc; Service.db_node svc ]
  in
  List.iter
    (function
      | Faults.Agent_crash { host; after; restart_after } -> (
          match List.find_opt (fun a -> String.equal (Agent.host a) host) agents with
          | None -> ()
          | Some a ->
              ignore (Engine.schedule_after engine ~delay:after (fun () -> Agent.crash a));
              Option.iter
                (fun back ->
                  ignore
                    (Engine.schedule_after engine
                       ~delay:(Sim_time.span_add after back)
                       (fun () -> Agent.restart a)))
                restart_after)
      | Faults.Ejb_delay _ | Faults.Database_lock _ | Faults.Ejb_network _
      | Faults.Host_silence _ | Faults.Tier_slow _ | Faults.Replica_slow _
      | Faults.Key_skew _ -> ())
    (Service.config svc).Service.faults;
  (collector, agents)

type t = {
  online : Core.Online.t;
  collector : Collector.t;
  agents : Agent.t list;
  mutable finished : bool;
}

let install ?(telemetry = R.default) ?(config = default_config) ?writer ?on_path svc =
  let correlate = Core.Correlator.config ~transform:(Service.transform_config svc) () in
  let online =
    Core.Online.create ~config:correlate ~hosts:(Service.server_hostnames svc) ?on_path
      ~telemetry ()
  in
  (* Delivery stays in the native representation end to end: each frame's
     arena is teed row by row into the store writer (raw, pre-transform)
     and fed to the online correlator. *)
  let on_arena =
    match writer with
    | None -> Core.Online.observe_arena online
    | Some w ->
        fun arena ->
          let host = Trace.Arena.host_sid arena in
          for i = 0 to Trace.Arena.length arena - 1 do
            Store.Writer.observe_row w ~host
              ~kind:(Trace.Arena.kind_code arena i)
              ~ts:(Trace.Arena.ts arena i)
              ~ctx:(Trace.Arena.ctx_id arena i)
              ~flow:(Trace.Arena.flow_id arena i)
              ~size:(Trace.Arena.size arena i)
          done;
          Core.Online.observe_arena online arena
  in
  let collector, agents =
    install_replica ~telemetry ~agent:config.agent ~port:config.port ~on_arena ~replica:0 svc
  in
  { online; collector; agents; finished = false }

let online t = t.online
let collector t = t.collector
let agents t = t.agents
let agent t ~host = List.find_opt (fun a -> String.equal (Agent.host a) host) t.agents

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Core.Online.finish t.online
  end
