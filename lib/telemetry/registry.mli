(** The process-wide metric registry.

    Metrics are identified by name plus a (possibly empty) sorted label
    set, in the Prometheus data model: monotonic {e counters}, last-write
    {e gauges}, and log-bucketed {e histograms} ({!Histogram}). Handles
    are resolved once — typically at component creation — and updating
    through a handle is one or two mutable-field writes, so hot paths
    (per-event, per-candidate) can afford it.

    [default] is the registry every pipeline component reports to unless
    handed another one; tests pass fresh registries to keep runs isolated.
    Registering the same name with two different metric kinds raises
    [Invalid_argument]; re-registering the same kind returns the existing
    handle (so components created repeatedly accumulate, which is what a
    whole-process self-profile wants).

    The registry is domain-safe: handle resolution and snapshots are
    serialised on a per-registry mutex, counter/gauge updates are single
    atomic operations, and histograms serialise on their own lock — so
    [pt_*] totals stay exact when several domains (the sharded
    correlator's workers) report into one registry concurrently. *)

type t

val create : unit -> t

val default : t
(** The process-wide registry. *)

val reset : t -> unit
(** Drop every registered metric (for test isolation). *)

type counter
type gauge

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters only go up). *)

val counter_value : counter -> int

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the high-water mark: [set] only if the value exceeds the current. *)

val gauge_value : gauge -> float

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets_per_decade:int -> string ->
  Histogram.t
val observe : Histogram.t -> float -> unit
(** Alias for {!Histogram.observe}, for call-site symmetry. *)

(** {1 Timer spans} *)

val time : t -> ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [time reg name f] runs [f] inside a span — the elapsed seconds are
    recorded even if [f] raises. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Hist of {
      count : int;
      sum : float;
      min_v : float;
      max_v : float;
      p50 : float;
      p90 : float;
      p99 : float;
      buckets : Histogram.bucket list;
    }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; help : string; samples : sample list }

val snapshot : t -> family list
(** Families sorted by name; samples sorted by label set. Histogram fields
    are computed at snapshot time. *)

val find_sample : family list -> ?labels:(string * string) list -> string -> value option
(** Convenience lookup for tests and reports (labels default to []). *)
