module Engine = Simnet.Engine
module Node = Simnet.Node
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address
module Service = Tiersim.Service
module Scenario = Tiersim.Scenario
module Faults = Tiersim.Faults
module R = Telemetry.Registry

type config = {
  shards : int;
  agent : Agent.config;
  max_flows : int;
  port : int;
  window : Sim_time.span option;
  straggler_timeout : Sim_time.span option;
  max_buffered : int option;
}

let default_config =
  {
    shards = 4;
    agent = Agent.default_config;
    max_flows = 4096;
    port = 7441;
    window = None;
    straggler_timeout = None;
    max_buffered = None;
  }

type shard = {
  shard_id : int;
  members : int list;  (* replica indices, ascending *)
  online : Core.Online.t;
  mutable ingest_records : int;
  mutable shard_collectors : Collector.t list;  (* of member replicas, newest first *)
}

type plane = { replica : int; plane_collector : Collector.t; plane_agents : Agent.t list }

type t = {
  config : config;
  replicas : int;
  shard_count : int;
  shards : shard array;
  mutable planes : plane list;  (* newest first *)
  telemetry : R.t;
  mutable report : report option;
}

and shard_report = {
  shard_id : int;
  shard_replicas : int list;
  paths_finished : int;
  paths_deformed : int;
  ingest_records : int;
  shard_boundary_entries : int;
  output_bytes : int;
}

and report = {
  finished : Core.Cag.t list;
  deformed : Core.Cag.t list;
  digest : string;
  shard_reports : shard_report list;
  agent_observed : int;
  agent_reduced : int;
  partial_coalesced : int;
  partial_local_flows : int;
  partial_fallbacks : int;
  boundary_entries : int;
  agent_bytes_shipped : int;
  delivered_records : int;
  root_ingest_bytes : int;
}

let create ?(telemetry = R.default) ?(config = default_config) (cluster : Scenario.cluster)
    =
  if config.shards <= 0 then invalid_arg "Hierarchy.create: shards";
  if cluster.Scenario.replicas <= 0 then invalid_arg "Hierarchy.create: replicas";
  let replicas = cluster.Scenario.replicas in
  let shard_count = min config.shards replicas in
  let shards =
    Array.init shard_count (fun k ->
        let members =
          List.filter (fun i -> i mod shard_count = k) (List.init replicas Fun.id)
        in
        (* The shard's transform is the cluster transform restricted to
           its own partition of the entry connections; rows of a member
           replica never reference another replica's endpoints, so the
           shard decides exactly like a monolithic correlator would. *)
        let base = Service.replica_transform_config ~replica:k in
        let transform =
          {
            base with
            Core.Transform.entry_points =
              List.map (fun i -> Service.replica_entry_endpoint ~replica:i) members;
          }
        in
        let correlate =
          match config.window with
          | Some window -> Core.Correlator.config ~transform ~window ()
          | None -> Core.Correlator.config ~transform ()
        in
        let hosts =
          List.concat_map (fun i -> Service.replica_server_hostnames ~replica:i) members
        in
        let online =
          Core.Online.create ~config:correlate ~hosts
            ?straggler_timeout:config.straggler_timeout
            ?max_buffered:config.max_buffered ~telemetry ()
        in
        { shard_id = k; members; online; ingest_records = 0; shard_collectors = [] })
  in
  { config; replicas; shard_count; shards; planes = []; telemetry; report = None }

let shard_of_replica t i = i mod t.shard_count
let shard_online t k = t.shards.(k).online

let collector t i =
  List.find_map
    (fun p -> if p.replica = i then Some p.plane_collector else None)
    t.planes

let agents t =
  List.concat_map (fun p -> p.plane_agents) (List.rev t.planes)

let install t i svc =
  if i < 0 || i >= t.replicas then invalid_arg "Hierarchy.install: replica index";
  if List.exists (fun p -> p.replica = i) t.planes then
    invalid_arg "Hierarchy.install: replica already installed";
  let engine = Service.engine svc in
  let sh = t.shards.(shard_of_replica t i) in
  let wire = Wire.create (Service.stack svc) in
  (* One collector machine per replica, inside the replica's own engine —
     the level-1 fan-in point that forwards to the shard correlator. *)
  let collector_node =
    Node.create ~engine
      ~hostname:(Printf.sprintf "collect%d" (i + 1))
      ~ip:(Address.ip_of_string (Printf.sprintf "10.%d.9.1" i))
      ~cores:2 ()
  in
  let on_arena arena =
    sh.ingest_records <- sh.ingest_records + Trace.Arena.length arena;
    Core.Online.observe_arena sh.online arena
  in
  let coll =
    Collector.create ~telemetry:t.telemetry ~on_arena ~wire ~node:collector_node
      ~port:t.config.port ()
  in
  sh.shard_collectors <- coll :: sh.shard_collectors;
  let agent_config =
    {
      t.config.agent with
      Agent.partial =
        Some
          (Core.Partial.config
             ~transform:(Service.transform_config svc)
             ~max_flows:t.config.max_flows ());
    }
  in
  let probe = Service.probe svc in
  let installed =
    List.map
      (fun node ->
        let a =
          Agent.create ~telemetry:t.telemetry ~config:agent_config ~wire ~node
            ~collector:(Collector.endpoint coll) ()
        in
        Agent.attach a probe;
        Agent.start a;
        a)
      [ Service.web_node svc; Service.app_node svc; Service.db_node svc ]
  in
  let find_agent host =
    List.find_opt (fun a -> String.equal (Agent.host a) host) installed
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
  t.planes <- { replica = i; plane_collector = coll; plane_agents = installed } :: t.planes

let finish t =
  match t.report with
  | Some r -> r
  | None ->
      let c_shard_paths =
        R.counter t.telemetry ~help:"Causal paths completed per shard"
          "pt_hier_shard_paths_total"
      in
      let c_root_bytes =
        R.counter t.telemetry ~help:"PTP1 path-table bytes ingested by the hierarchy root"
          "pt_hier_root_ingest_bytes_total"
      in
      let c_root_paths =
        R.counter t.telemetry ~help:"Causal paths in the root's global sequence"
          "pt_hier_root_paths_total"
      in
      (* Drain every shard, then ship each shard's paths to the root as
         one PTP1 path table with no back-links. The root decodes the
         bytes — it never touches the shard correlators' in-memory
         graphs. *)
      let per_shard =
        Array.to_list
          (Array.map
             (fun sh ->
               Core.Online.finish sh.online;
               let fin = Core.Online.paths sh.online in
               let dfm = Core.Online.deformed sh.online in
               let message =
                 Bundle.Codec.encode ~link_hosts:[||]
                   (List.map (fun cag -> { Bundle.Codec.cag; links = [||] }) (fin @ dfm))
               in
               let decoded =
                 match Bundle.Codec.decode message ~pos:0 ~len:(String.length message) with
                 | Ok d -> List.map (fun p -> p.Bundle.Codec.cag) d.Bundle.Codec.paths
                 | Error e ->
                     failwith
                       (Printf.sprintf "Hierarchy.finish: shard %d PTP1 corrupt: %s"
                          sh.shard_id e)
               in
               let dec_fin, dec_dfm = List.partition Core.Cag.is_finished decoded in
               let boundary =
                 List.fold_left
                   (fun acc c -> acc + Collector.boundary_entries c)
                   0 sh.shard_collectors
               in
               let report =
                 {
                   shard_id = sh.shard_id;
                   shard_replicas = sh.members;
                   paths_finished = List.length fin;
                   paths_deformed = List.length dfm;
                   ingest_records = sh.ingest_records;
                   shard_boundary_entries = boundary;
                   output_bytes = String.length message;
                 }
               in
               R.add c_shard_paths (List.length fin + List.length dfm);
               R.add c_root_bytes (String.length message);
               (report, dec_fin, dec_dfm))
             t.shards)
      in
      let shard_reports = List.map (fun (r, _, _) -> r) per_shard in
      let finished = Core.Hierarchy.splice (List.map (fun (_, f, _) -> f) per_shard) in
      let deformed =
        Core.Hierarchy.canonicalize ~first_id:(List.length finished)
          (List.concat_map (fun (_, _, d) -> d) per_shard)
      in
      R.add c_root_paths (List.length finished + List.length deformed);
      let digest = Core.Hierarchy.digest ~finished ~deformed in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 t.planes in
      let agent_sum f =
        sum (fun p ->
            List.fold_left (fun acc a -> acc + f (Agent.stats a)) 0 p.plane_agents)
      in
      let report =
        {
          finished;
          deformed;
          digest;
          shard_reports;
          agent_observed = agent_sum (fun s -> s.Agent.observed);
          agent_reduced = agent_sum (fun s -> s.Agent.reduced);
          partial_coalesced = agent_sum (fun s -> s.Agent.partial_coalesced);
          partial_local_flows = agent_sum (fun s -> s.Agent.partial_local_flows);
          partial_fallbacks = agent_sum (fun s -> s.Agent.partial_fallbacks);
          boundary_entries = agent_sum (fun s -> s.Agent.boundary_entries);
          agent_bytes_shipped = agent_sum (fun s -> s.Agent.bytes_shipped);
          delivered_records =
            Array.fold_left (fun acc (sh : shard) -> acc + sh.ingest_records) 0 t.shards;
          root_ingest_bytes =
            List.fold_left (fun acc r -> acc + r.output_bytes) 0 shard_reports;
        }
      in
      t.report <- Some report;
      report
