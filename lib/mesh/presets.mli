(** Adversarial scenario presets over a reference microservice mesh.

    The reference graph: [gw -> lb -> api x3 -> {cache -> db x2 ||
    profile x2} -> worker (async)]. Presets:

    - [control]: the healthy graph — the faultless baseline every gate
      compares against (zero false positives required).
    - [cascading_failure]: {!Tiersim.Faults.Tier_slow} on the db plus
      retry policies on the api and cache edges — timeouts fire, retried
      duplicate flows amplify load downstream.
    - [hotspot_key]: {!Tiersim.Faults.Key_skew} — 80% of requests carry
      one guaranteed-miss key, hammering db partition [db2].
    - [canary_slow_version]: {!Tiersim.Faults.Replica_slow} — one api
      replica (the canary) runs 6x slow behind the load balancer.
    - [thundering_herd]: 32 clients fire at the same instant with zero
      think time into a slow async worker.
    - [random]: a seeded random call-tree topology ({!Random_spec}).
    - [random_mesh]: a seeded random declarative DAG ({!Spec.random}). *)

val names : string list
val default_seed : int

val spec_of : seed:int -> string -> Spec.t option
(** The declarative spec behind a preset name; [None] for unknown names
    and for [random] (which is a {!Random_spec} call-tree, not a DAG
    spec). *)

type report = {
  preset : string;
  seed : int;
  accuracy : float;
  correct : int;
  total_requests : int;
  false_positives : int;
  false_negatives : int;
  paths : int;
  patterns : int;  (** Distinct path signatures. *)
  records : int;  (** Probe activities correlated. *)
  retries : int;
  cache_hits : int;
  cache_misses : int;
  async_jobs : int;
  served : (string * int) list;  (** Per-host handled requests. *)
  digest : string;
  correlation_time : float;
}

val run :
  ?window:Simnet.Sim_time.span -> ?seed:int -> string -> report
(** Build, simulate, correlate and score one preset
    end-to-end. @raise Invalid_argument on unknown names. *)

val pp_report : Format.formatter -> report -> unit
