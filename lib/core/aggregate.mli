(** Average causal paths (§3.2): aggregating isomorphic CAGs.

    For a causal path pattern, the paper averages its n isomorphic CAGs
    into one {e average causal path} and reads component latencies off it.
    Members of a pattern have positionally identical critical paths, so
    hops aggregate index-wise.

    Everything here reads the spans {!Pattern.classify} recorded
    ({!Pattern.t.spans}, one column per hop) and the members' durations;
    no CAG is walked again. The hop components come from one
    {!Latency.critical_path} call on the first finished member. *)

type hop_stat = {
  comp : Latency.component;
  mean_s : float;  (** Mean hop latency, seconds. *)
  std_s : float;  (** Population standard deviation, seconds. *)
}

type t = {
  pattern_name : string;
  count : int;  (** CAGs aggregated. *)
  hops : hop_stat list;  (** In causal order along the path. *)
  mean_total_s : float;  (** Mean end-to-end latency, seconds. *)
}

val of_pattern : ?normalize:(string -> string) -> Pattern.t -> t
(** Aggregate a pattern's finished members.
    @raise Invalid_argument on an empty pattern. *)

val component_latencies : t -> (Latency.component * float) list
(** Mean latency per component (hops summed by label), seconds, in
    first-appearance order. *)

val component_percentages : t -> (Latency.component * float) list
(** Same, as shares of the mean total (the paper's Figs. 15/17 y-axis). *)

val pp : Format.formatter -> t -> unit

(** {1 Tail latency}

    Means hide stragglers; per-hop percentiles over a pattern's members
    show where the tail lives (a lock held occasionally, a queue that
    only sometimes forms). *)

type hop_tail = {
  tail_comp : Latency.component;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  tail_max_s : float;
}

val hop_tails : ?normalize:(string -> string) -> Pattern.t -> hop_tail list
(** Per-hop latency percentiles, in causal order along the path.
    @raise Invalid_argument on an empty pattern. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the {e nearest-rank} estimate over an
    ascending-sorted array of finite samples: the element at index
    [round (p * (n - 1))] — always an actually observed sample, never an
    interpolation. [n = 1] yields the single sample for every [p]; an
    empty array yields 0. The input must contain finite floats only
    (see {!sorted_finite}): NaN compares greater than any float under
    [Float.compare], so NaN samples would sort last and silently inflate
    the upper percentiles. *)

val sorted_finite : float list -> float array
(** Drop non-finite samples (NaN, infinities) and sort ascending — the
    required preprocessing for {!percentile}. *)

type total_tail = { t_p50_s : float; t_p90_s : float; t_p99_s : float; t_max_s : float }

val total_tail : Pattern.t -> total_tail
(** End-to-end duration percentiles over the pattern's finished members. *)

val pp_tails : Format.formatter -> Pattern.t -> unit
