(** Average causal paths (§3.2): aggregating isomorphic CAGs.

    For a causal path pattern, the paper averages its n isomorphic CAGs
    into one {e average causal path} and reads its component latency
    percentages off it (Figs. 15 and 17); §5.4 compares those percentages
    between two runs ({!Analysis.compare_profiles}). Members of a pattern
    have positionally identical critical paths, so hops aggregate
    index-wise.

    Everything here reads the spans {!Pattern.classify} recorded
    ({!Pattern.t.spans}, one column per hop) and the members' durations;
    no CAG is walked again. The hop components come from one
    {!Latency.critical_path} call on the first finished member. *)

val of_pattern : Pattern.t -> Analysis.profile
(** The pattern's average causal path as its §5.4 profile: each hop's
    mean over the finished members, summed per component label in
    first-appearance order, with each component's share of their sum,
    and the mean end-to-end latency of the finished members. A pattern
    with no finished member gets mean 0 and no components. *)

val profiles_of_cags : Cag.t list -> Analysis.profile list
(** Classify and aggregate: {!of_pattern} of each {!Pattern.classify}
    pattern, in its order (most frequent first). *)

val pp : Format.formatter -> Analysis.profile -> unit
(** ["average path NAME (n=COUNT, mean total T ms)"], then one line per
    component with its share. *)

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

val hop_tails : Pattern.t -> hop_tail list
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
