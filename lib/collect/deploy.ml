module Engine = Simnet.Engine
module Node = Simnet.Node
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address
module Service = Tiersim.Service
module Faults = Tiersim.Faults
module R = Telemetry.Registry

type config = {
  batch_records : int;
  flush_interval : Sim_time.span;
  max_spool_records : int;
  overflow : Agent.overflow;
  policy : Store.Policy.t;
  port : int;
  window : Sim_time.span option;
  straggler_timeout : Sim_time.span option;
  max_buffered : int option;
}

let default_config =
  {
    batch_records = Agent.default_config.Agent.batch_records;
    flush_interval = Agent.default_config.Agent.flush_interval;
    max_spool_records = Agent.default_config.Agent.max_spool_records;
    overflow = Agent.default_config.Agent.overflow;
    policy = Store.Policy.none;
    port = 7441;
    window = None;
    straggler_timeout = None;
    max_buffered = None;
  }

type t = {
  online : Core.Online.t;
  collector : Collector.t;
  agents : Agent.t list;
  mutable finished : bool;
}

let install ?(telemetry = R.default) ?(config = default_config) ?writer ?on_path svc =
  let engine = Service.engine svc in
  let stack = Service.stack svc in
  let wire = Wire.create stack in
  let correlate =
    match config.window with
    | Some window -> Core.Correlator.config ~transform:(Service.transform_config svc) ~window ()
    | None -> Core.Correlator.config ~transform:(Service.transform_config svc) ()
  in
  let online =
    Core.Online.create ~config:correlate ~hosts:(Service.server_hostnames svc)
      ?straggler_timeout:config.straggler_timeout ?max_buffered:config.max_buffered
      ?on_path ~telemetry ()
  in
  (* The collector is an extra, untraced machine on the same network.
     Delivery stays in the native representation end to end: each frame's
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
  let collector_node =
    Node.create ~engine ~hostname:"collect1" ~ip:(Address.ip_of_string "10.0.9.1") ~cores:2
      ()
  in
  let collector =
    Collector.create ~telemetry ~on_arena ~wire ~node:collector_node ~port:config.port ()
  in
  let agent_config =
    {
      Agent.default_config with
      Agent.batch_records = config.batch_records;
      flush_interval = config.flush_interval;
      max_spool_records = config.max_spool_records;
      overflow = config.overflow;
      policy = config.policy;
      correlate = (if Store.Policy.is_none config.policy then None else Some correlate);
    }
  in
  let probe = Service.probe svc in
  let agents =
    List.map
      (fun node ->
        let a =
          Agent.create ~telemetry ~config:agent_config ~wire ~node
            ~collector:(Collector.endpoint collector) ()
        in
        Agent.attach a probe;
        Agent.start a;
        a)
      [ Service.web_node svc; Service.app_node svc; Service.db_node svc ]
  in
  let find_agent host =
    List.find_opt (fun a -> String.equal (Agent.host a) host) agents
  in
  List.iter
    (function
      | Faults.Agent_crash { host; after; restart_after } -> (
          match find_agent host with
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
