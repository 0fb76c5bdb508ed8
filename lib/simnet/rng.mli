(** Deterministic, splittable pseudo-random number generation.

    Every stochastic decision in the simulator draws from an [Rng.t]. A
    generator is created from an integer seed and can be [split] by label
    into an independent stream, so adding a new consumer never perturbs the
    draws seen by existing ones — a prerequisite for reproducible
    experiments. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator determined entirely by [seed]. *)

val split : t -> string -> t
(** [split t label] is an independent generator derived from [t]'s seed and
    [label]. Splitting is a pure function of (seed, label): the same pair
    always yields the same stream. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. *)

val uniform_span : t -> lo:Sim_time.span -> hi:Sim_time.span -> Sim_time.span
(** Uniform duration in [lo, hi]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean (both in the caller's
    unit of choice). *)

val exponential_span : t -> mean:Sim_time.span -> Sim_time.span
(** Exponential duration with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto draw: [scale * u^(-1/shape)] for uniform [u]. Heavy-tailed when
    [shape] is small; used for bursty think times and message sizes. *)

val normal : t -> mean:float -> std:float -> float
(** Gaussian draw (Box-Muller). *)

val positive_normal_span : t -> mean:Sim_time.span -> rel_std:float -> Sim_time.span
(** Gaussian duration with standard deviation [rel_std *. mean], truncated
    below at one nanosecond. Models service-time jitter. *)

val weighted : t -> ('a * float) list -> 'a
(** [weighted t items] draws an item with probability proportional to its
    weight. Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
