(** Canned experiment scenarios: one call from workload spec to collected
    traces, oracle and QoS metrics.

    A scenario reproduces the paper's experimental procedure (§5.1): a
    three-stage run — up-ramp (2 min), runtime session (7 min 30 s),
    down-ramp (1 min) — with a given client count, workload mix,
    MaxThreads setting, faults, clock skew and optional noise. QoS is
    summarised over the runtime session only. [time_scale] shrinks the
    stage durations (not think or service times) so the full experiment
    grid fits in CI; 1.0 reproduces the paper's timing. *)

type noise_spec =
  | No_noise
  | Paper_noise of { db_connections : int }
      (** The §5.3.3 environment: rlogin and ssh chatter (name-filterable)
          plus [db_connections] mysql command-line clients hammering the
          service's own database (unfilterable by name). *)

type spec = {
  name : string;
  clients : int;
  mix : Workload.mix;
  only_kind : string option;
  max_threads : int;
  tracing : bool;  (** Probe enabled? (Figs. 12-13 compare both.) *)
  faults : Faults.t list;
  noise : noise_spec;
  skew : Simnet.Sim_time.span;
  drift_ppm : float;
  time_scale : float;
  seed : int;
  replica : int;
      (** Cluster replica index (default 0) — see
          [Service.config.replica]. *)
  fault_onset : Simnet.Sim_time.span option;
      (** Activate [faults] only from this sim instant (default: start). *)
}

val default : spec
(** Browse_only, 300 clients, MaxThreads 40, tracing on, no faults/noise/
    skew, time_scale 0.1, seed 42. *)

type outcome = {
  spec : spec;
  logs : Trace.Log.collection;  (** Per-server-node activity logs. *)
  ground_truth : Trace.Ground_truth.t;
  metrics : Metrics.t;
  measure_from : Simnet.Sim_time.t;  (** Runtime-session bounds. *)
  measure_until : Simnet.Sim_time.t;
  summary : Metrics.summary;  (** Over the runtime session. *)
  activity_count : int;
  transform : Core.Transform.config;
  web : Service.tier_stats;
  app : Service.tier_stats;
  db : Service.tier_stats;
  sim_events : int;
}

val run : ?before_run:(Service.t -> unit) -> ?after_run:(Service.t -> unit) -> spec -> outcome
(** Build the deployment, run the three stages plus drain, and collect
    everything. Deterministic for a fixed spec. [before_run] fires after
    the probe is enabled but before any load is scheduled — the hook an
    in-band collection plane ({!Collect.Deploy.install}) uses to join the
    deployment; [after_run] fires as soon as the event queue drains,
    before outcome assembly. *)

val stage_spans :
  time_scale:float -> Simnet.Sim_time.span * Simnet.Sim_time.span * Simnet.Sim_time.span
(** (up-ramp, runtime, down-ramp) after scaling the paper's durations. *)

val mid_run_onset : ?frac:float -> time_scale:float -> unit -> Simnet.Sim_time.span
(** The canonical [fault_onset] for a mid-run injection: the up-ramp plus
    [frac] (default 0.5) of the runtime session — late enough that a
    diagnosis baseline can be learned on healthy traffic, early enough
    that the abnormal regime dominates the rest of the session. *)

val runtime_session : time_scale:float -> Simnet.Sim_time.t * Simnet.Sim_time.t
(** The (start, end) instants of the runtime session: QoS and diagnosis
    verdicts are measured inside this interval only (ramps excluded). *)

(** {1 Cluster preset}

    A simulated cluster is [replicas] independent three-tier deployments
    with disjoint hosts and addresses, run sequentially (deterministic).
    Requests never cross replicas, so each replica's entry-connection set
    partitions the cluster's entry flows — the property the hierarchical
    correlation tree shards on. *)

type cluster = { base : spec; replicas : int }

val default_cluster : cluster
(** 17 replicas x 3 traced hosts = 51 hosts (the ROADMAP's 50+ target),
    with a lighter per-replica load so the closed loop fits in CI. *)

type cluster_outcome = {
  cluster : cluster;
  outcomes : outcome list;  (** Per replica, in replica order. *)
  all_logs : Trace.Log.collection;  (** Every replica's server logs. *)
  cluster_transform : Core.Transform.config;
      (** The cluster transform: union of the replicas' entry points. *)
  hosts : string list;  (** Every traced server hostname. *)
}

val run_cluster :
  ?before_replica:(int -> Service.t -> unit) ->
  ?after_replica:(int -> Service.t -> unit) ->
  cluster ->
  cluster_outcome
(** Run every replica, in order. The hooks receive the replica index and
    fire exactly like [run]'s [before_run]/[after_run] — the former is
    where a hierarchical collection plane installs its per-replica agents
    and collectors. *)
