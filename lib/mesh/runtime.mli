(** Compile and run a {!Spec.t}; correlate and score the result.

    The execution discipline that keeps correlation exact: every logical
    call gets its own flow (pooled connections are never pipelined — a
    retry or a concurrent sibling dials a separate connection), and a
    handler never responds upstream before draining every response it is
    owed, including late responses to timed-out attempts, so no activity
    of a request ever trails its END. *)

type Simnet.Messaging.payload += Req of { id : int; key : int }

type stats = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable retries : int;  (** Timeout-triggered duplicate attempts. *)
  mutable async_jobs : int;  (** Jobs acknowledged by queue workers. *)
  served : (string, int) Hashtbl.t;  (** hostname -> requests handled. *)
}

type built = {
  engine : Simnet.Engine.t;
  probe : Trace.Probe.t;
  gt : Trace.Ground_truth.t;
  entries : Simnet.Address.endpoint list;  (** Entry replica endpoints (BEGIN/END rewriting). *)
  hostnames : string list;  (** Every traced tier host. *)
  stats : stats;
  metrics : Tiersim.Metrics.t;
  spec : Spec.t;
}

val served : built -> (string * int) list
(** Per-host handled-request counts, sorted by hostname. *)

val build : Spec.t -> built
(** Validate and compile the spec. Run with [Simnet.Engine.run]. *)

type score = {
  result : Core.Correlator.result;
  verdict : Core.Accuracy.verdict;
  patterns : int;  (** Path patterns, as {!Core.Pattern.classify} groups them. *)
  records : int;  (** Probe activities correlated. *)
  digest : string;  (** {!Core.Shard.digest} of the result. *)
}

val score_logs :
  ?window:Simnet.Sim_time.span ->
  entries:Simnet.Address.endpoint list ->
  gt:Trace.Ground_truth.t ->
  Trace.Log.collection ->
  score
(** Correlate (serial, default 5 ms window) and check accuracy against
    the oracle. *)

val run : ?window:Simnet.Sim_time.span -> Spec.t -> built * score
(** [build], drive the simulation to completion, then {!score_logs}. *)
