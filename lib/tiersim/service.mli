(** The simulated three-tier auction service (the paper's RUBiS testbed).

    Topology, mirroring the paper's Fig. 7: client nodes run emulators;
    one node runs the [httpd] web tier (prefork: process per connection);
    one runs the [java] app tier (thread per connection, bounded by
    [max_threads] — JBoss's MaxThreads knob); one runs the [mysqld]
    database tier (thread per connection). The web tier keeps its backend
    connection to the app tier alive across a client's consecutive
    requests and closes it after [backend_idle_timeout] — so each live
    client occupies an app-tier thread for its request's duration plus up
    to the timeout, which is what makes MaxThreads=40 choke between 500
    and 800 concurrent clients exactly as in §5.4.1.

    The service records every request in a {!Trace.Ground_truth} oracle
    (standing in for the paper's modified, ID-tagging RUBiS) and response
    times in {!Metrics}. *)

type Simnet.Messaging.payload +=
  | Http_request of Workload.plan  (** Client -> web tier. *)
  | App_request of Workload.plan  (** Web tier -> app tier. *)
  | Db_query of { plan_id : int; kind : string; query : Workload.db_query }
      (** App tier -> database. *)

type config = {
  seed : int;
  replica : int;
      (** Replica index inside a simulated cluster (default 0): tier
          hosts are named web/app/db[replica+1] and every IP's second
          octet is the replica, so replica 0 reproduces the historical
          single-service addresses and replicas never share endpoints. *)
  client_node_count : int;  (** Paper: 3 client emulator nodes. *)
  cores_per_node : int;  (** Paper: 2-way SMP. *)
  max_clients : int;  (** Web-tier process pool size. *)
  max_threads : int;  (** App-tier thread pool size (default 40). *)
  db_max_threads : int;
  backend_pool_size : int;
      (** Web tier's bounded pool of backend connections (mod_jk style);
          overflow waits land inside the web tier. *)
  backend_idle_timeout : Simnet.Sim_time.span;
  skew : Simnet.Sim_time.span;
      (** Cross-node clock skew magnitude: the app node runs [+skew], the
          database node [-skew], other nodes in between. *)
  drift_ppm : float;  (** Clock drift, alternating sign across nodes. *)
  switch_penalty : float;  (** CPU context-switch penalty (see {!Simnet.Cpu}). *)
  faults : Faults.t list;
  fault_onset : Simnet.Sim_time.span option;
      (** Delay fault activation to this sim instant ([None]: active from
          the start). Lets online monitoring watch a regression appear. *)
  probe_overhead : Simnet.Sim_time.span;
}

val default_config : config
(** 1000-capable deployment with the paper's defaults: MaxThreads 40,
    250 ms backend idle timeout, 2 cores, no skew, no faults. *)

type t

val create : config -> t
(** Build nodes, listeners and pools; apply node-level faults. The probe
    is attached (covering only the three server nodes) but disabled. *)

(** {1 Accessors} *)

val engine : t -> Simnet.Engine.t
val stack : t -> Simnet.Tcp.stack
val messaging : t -> Simnet.Messaging.t
val rng : t -> Simnet.Rng.t
val config : t -> config
val client_nodes : t -> Simnet.Node.t array
val web_node : t -> Simnet.Node.t
val app_node : t -> Simnet.Node.t
val db_node : t -> Simnet.Node.t
val ground_truth : t -> Trace.Ground_truth.t
val metrics : t -> Metrics.t
val probe : t -> Trace.Probe.t

val entry_endpoint : t -> Simnet.Address.endpoint
(** The web tier's [ip:80]. *)

val server_hostnames : t -> string list

val fresh_request_id : t -> int

val transform_config : t -> Core.Transform.config
(** Correlator preprocessing for this deployment: the entry endpoint plus
    the standard noise program filters (rlogin, sshd, mysql client). *)

(** {1 The replica addressing scheme, standalone}

    Derivable from [config.replica] alone, before any replica is built —
    what a cluster-wide consumer (the hierarchical collection plane, which
    must create its shard correlators up front) uses to partition entry
    flows and name traced hosts. [create] follows the same formulas. *)

val replica_entry_endpoint : replica:int -> Simnet.Address.endpoint
(** [10.<replica>.1.1:80] — replica [i]'s web-tier entry endpoint. *)

val replica_server_hostnames : replica:int -> string list
(** [[web<i+1>; app<i+1>; db<i+1>]]. *)

val standard_drop_programs : string list
(** The name-filterable noise programs every deployment drops. *)

val replica_transform_config : replica:int -> Core.Transform.config
(** [transform_config] of replica [i]'s deployment, computed standalone. *)

(** {1 Load-dependent state, for assertions and reports} *)

type tier_stats = {
  busy_workers : int;
  queued_jobs : int;
  peak_queued_jobs : int;
  served : int;
  cpu_utilization : float;
}

val web_stats : t -> tier_stats
val app_stats : t -> tier_stats
val db_stats : t -> tier_stats
