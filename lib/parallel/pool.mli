(** A fixed pool of worker domains with deterministic fork/join.

    The pool runs index-range jobs: [run pool ~n f] evaluates [f i] for
    every [i] in [0 .. n-1], distributing indices over the pool's domains
    (the calling domain participates too), and returns only when all [n]
    tasks have completed. Task results are keyed by index, never by
    scheduling order, so a [map] is deterministic regardless of how the
    domains interleave — the property the sharded correlator and the
    store scanners rely on.

    The pool is {e not} re-entrant: a task that calls back into its own
    pool (or a second [run] racing a first) is executed inline on the
    calling domain instead — correct, just serial. A pool of [jobs = 1]
    spawns no domains at all and runs everything inline. *)

type t

val size : t -> int
(** The parallelism degree [jobs] the pool was created with. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [jobs - 1] worker domains (clamped to at
    least one job), runs [f] on the pool and joins the domains, even on
    exceptions. *)

val run : t -> n:int -> (int -> unit) -> unit
(** Evaluate [f i] for [i = 0 .. n-1] across the pool and wait for all of
    them. If any task raises, the first exception (by completion order)
    is re-raised in the caller after the join — remaining tasks still
    run, so the pool stays consistent. *)

val map : t -> n:int -> (int -> 'a) -> 'a array
(** [map pool ~n f] is [| f 0; f 1; ...; f (n-1) |], computed across the
    pool. The result array is in index order — deterministic no matter
    how the domains interleave. *)

val default_jobs : unit -> int
(** The parallelism degree used when the caller does not choose one: the
    [PT_JOBS] environment variable if set to a positive integer (clamped
    to 64), else 1. Parallel work runs only where a caller or the
    environment asks for it. *)
