(** Declarative microservice-DAG topologies.

    A spec names the tiers of a service graph — each with a role, a
    replica count, per-request compute and a clock skew — and the calls
    between them: ordered call groups whose targets are dialled either
    sequentially or concurrently, optionally under a retry policy.
    {!Runtime.build} compiles a validated spec onto [Simnet] with full
    {!Trace.Ground_truth} oracle coverage; {!Presets} ships adversarial
    scenarios over a common reference topology. *)

module Sim_time := Simnet.Sim_time

type retry = {
  max_retries : int;  (** Additional attempts after the first. *)
  timeout : Sim_time.span;  (** Per-attempt; a late response is still drained. *)
  backoff : Sim_time.span;  (** Wait between timeout and the next attempt. *)
}

type mode =
  | Sequential  (** Targets dialled one at a time, in order. *)
  | Concurrent
      (** All targets dialled back-to-back on separate connections; the
          caller proceeds when every response (including late ones from
          timed-out attempts) has been drained. *)

type call_group = { targets : string list; mode : mode; retry : retry option }

type role =
  | Service  (** Compute, run the tier's call groups, respond. *)
  | Cache of { hit_ratio : float; backing : string; backing_retry : retry option }
      (** Hit: respond directly (short-circuit). Miss: call [backing]
          first. Hit/miss is a deterministic property of the request key
          ({!cache_hit}). *)
  | Load_balancer of { backend : string }
      (** Forward the request to one [backend] replica, round-robin. *)
  | Queue_worker
      (** Async hop: acknowledge the job immediately, then burn the
          compute {e after} the ack — the caller's latency excludes the
          work, but the backlog delays later jobs. *)

type tier = {
  name : string;
  role : role;
  replicas : int;  (** Key-partitioned, except under a load balancer. *)
  cores : int;
  compute : Sim_time.span;  (** Per-request service demand. *)
  skew : Sim_time.span;  (** Per-replica clock skew drawn in [-skew, +skew]. *)
  calls : call_group list;  (** Service tiers only; executed in order. *)
  response_size : int;
}

type t = {
  name : string;
  entry : string;  (** Must be a [Service]; its endpoints are the BEGIN/END entry points. *)
  tiers : tier list;
  clients : int;
  requests_per_client : int;
  think_mean : Sim_time.span;  (** Exponential think; zero = none. *)
  sync_start : bool;  (** All clients fire at the same instant (thundering herd). *)
  keys : int;  (** Key space; multiples of 100 make {!cache_hit} exact. *)
  request_size : int;
  chunk : int;  (** Send chunk size: small values force n-to-n merging. *)
  faults : Tiersim.Faults.t list;
      (** Interpreted here: [Tier_slow], [Replica_slow] scale compute;
          [Key_skew] reshapes the client key distribution. Others are
          ignored. *)
  seed : int;
}

val tier :
  ?role:role ->
  ?replicas:int ->
  ?cores:int ->
  ?compute:Sim_time.span ->
  ?skew:Sim_time.span ->
  ?calls:call_group list ->
  ?response_size:int ->
  string ->
  tier

val group : ?mode:mode -> ?retry:retry -> string list -> call_group

val cache_hit : hit_ratio:float -> key:int -> bool
(** Deterministic per-key hit set: [key mod 100 < hit_ratio * 100]. *)

val route : replicas:int -> key:int -> int
(** Key partitioning: [key mod replicas]. *)

val validate : t -> unit
(** @raise Invalid_argument on unknown/self/entry targets, cyclic call
    graphs, empty groups, non-Service roles with call groups, or
    out-of-range parameters. *)

val random : ?tiers:int -> seed:int -> unit -> t
(** A random layered service DAG with replicated tiers, concurrent
    fan-out groups and a cache with hit/miss branching — the accuracy
    property's input space. [tiers] pins the tier count (else 3-6). *)
