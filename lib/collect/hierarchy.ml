module Service = Tiersim.Service
module Scenario = Tiersim.Scenario
module R = Telemetry.Registry

type config = { shards : int; agent : Agent.config; port : int }

let default_config = { shards = 4; agent = Agent.default_config; port = 7441 }

type shard = {
  shard_id : int;
  members : int list;  (* replica indices, ascending *)
  online : Core.Online.t;
  mutable ingest_records : int;
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
        let hosts =
          List.concat_map (fun i -> Service.replica_server_hostnames ~replica:i) members
        in
        let online =
          Core.Online.create
            ~config:(Core.Correlator.config ~transform ())
            ~hosts ~telemetry ()
        in
        { shard_id = k; members; online; ingest_records = 0 })
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
  let sh = t.shards.(shard_of_replica t i) in
  let on_arena arena =
    sh.ingest_records <- sh.ingest_records + Trace.Arena.length arena;
    Core.Online.observe_arena sh.online arena
  in
  let agent = { t.config.agent with Agent.partial = Some (Service.transform_config svc) } in
  let coll, installed =
    Deploy.install_replica ~telemetry:t.telemetry ~agent ~port:t.config.port ~on_arena
      ~replica:i svc
  in
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
                 (Bundle.Codec.encode ~link_hosts:[||] (fin @ dfm)).Bundle.Codec.bytes
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
               let report =
                 {
                   shard_id = sh.shard_id;
                   shard_replicas = sh.members;
                   paths_finished = List.length fin;
                   paths_deformed = List.length dfm;
                   ingest_records = sh.ingest_records;
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
          agent_bytes_shipped = agent_sum (fun s -> s.Agent.bytes_shipped);
          delivered_records =
            Array.fold_left (fun acc (sh : shard) -> acc + sh.ingest_records) 0 t.shards;
          root_ingest_bytes =
            List.fold_left (fun acc r -> acc + r.output_bytes) 0 shard_reports;
        }
      in
      t.report <- Some report;
      report
