(** Clock-skew estimation from causal paths (extension ext-4).

    The paper accepts that cross-node interaction latencies absorb clock
    skew ("we do not remedy the clock skew"). The CAGs themselves contain
    enough information to remedy most of it: every message edge from host
    A to host B observes [d_AB = latency + (offset_B - offset_A)], and
    latency is non-negative and bounded below by the network's minimum
    delay. Under the classic symmetric-minimum assumption (the fastest
    A->B message and the fastest B->A message saw the same network delay
    — NTP's reasoning), the per-pair offset is

    {v offset_B - offset_A = (min d_AB - min d_BA) / 2 v}

    Offsets are then anchored to a reference host and propagated over the
    pair graph, so hosts that never exchange messages directly are still
    aligned through common peers. The estimate cannot see the true
    one-way asymmetry, so residual error is bounded by half the
    difference of the two directions' minimum delays. *)

type t

type estimate = {
  host : string;
  offset : Simnet.Sim_time.span;
      (** Estimated clock offset relative to the reference host: local
          timestamps of [host] read [offset] later than the reference's
          for the same instant. *)
  pairs_used : int;  (** Host pairs contributing to this estimate. *)
}

val estimate : ?reference:string -> Cag.t list -> t
(** Learn offsets from the message edges of the given (finished or not)
    CAGs. [reference] defaults to the first host seen (CAG roots' host in
    practice — the entry tier). Hosts unreachable through shared message
    edges keep offset 0 and [pairs_used = 0]. *)

val offsets : t -> estimate list
(** One entry per host, reference first. *)

val offset_of : t -> string -> Simnet.Sim_time.span
(** 0 for unknown hosts. *)

val samples : t -> (string * string * int) list
(** Message-edge sample counts per ordered host pair. *)

val correct_activity_ts : t -> Trace.Activity.t -> Simnet.Sim_time.t
(** The activity's timestamp mapped onto the reference clock. *)

val corrected_breakdown : t -> Cag.t -> (Latency.component * Simnet.Sim_time.span) list
(** {!Latency.breakdown} with every hop latency computed on skew-corrected
    timestamps: cross-node components become meaningful even under
    hundreds of milliseconds of skew. *)
