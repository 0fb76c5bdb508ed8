(** Log-bucketed latency/size histograms.

    Observations land in exponentially-spaced buckets ([buckets_per_decade]
    per factor of ten, default 16, ~15% relative width), so an observe is a
    [log10], an array index and an increment — cheap enough for hot paths
    like per-candidate window-occupancy sampling. Count, sum, exact min and
    max are tracked alongside, so [mean] and [max_value] are exact while
    quantiles are bucket-resolution approximations (always within one
    bucket's relative error, and clamped to the exact observed range).

    Histograms are domain-safe: every operation (including {!merge_into}
    and the snapshot readers) is serialised on an internal per-histogram
    mutex, so concurrent observers from several domains never lose
    updates. *)

type t

val create : ?buckets_per_decade:int -> unit -> t
(** Covers 1e-9 .. 1e9 (under/overflows clamp to the edge buckets).
    @raise Invalid_argument if [buckets_per_decade] is not positive. *)

val observe : t -> float -> unit
(** NaN is ignored; zero and negative values count into the lowest bucket
    (they preserve [count]/[sum]/[min] exactly). *)

val observe_n : t -> float -> int -> unit
(** [observe_n t v n] is [n] observations of [v] at once ([n <= 0]: none);
    for integer-valued [v] the result equals [n] calls of {!observe}. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [sum / count]; 0 when empty. *)

val min_value : t -> float
(** Exact smallest observation; 0 when empty. *)

val max_value : t -> float
(** Exact largest observation; 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: the upper bound of the first bucket
    whose cumulative count reaches [q * count], clamped to
    [[min_value, max_value]]. 0 when empty. *)

val clear : t -> unit

type bucket = { upper : float; cumulative : int }
(** Prometheus-style cumulative bucket: observations <= [upper]. *)

val buckets : t -> bucket list
(** Non-empty buckets in increasing [upper] order, cumulative counts; the
    implicit final [+Inf] bucket equals [count]. Empty list when empty. *)

val merge_into : dst:t -> t -> unit
(** Fold [t]'s buckets and exact stats into [dst].
    @raise Invalid_argument on differing [buckets_per_decade]. *)
