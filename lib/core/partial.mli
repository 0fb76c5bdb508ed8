(** Agent-local partial correlation (hierarchy level 0).

    A million-user cluster cannot ship every syscall record to one
    correlator; the companion papers shrink the feed at the source. This
    pass runs {e inside the agent}, on one batch of one host's rows, and
    applies exactly the reductions that are invisible to the downstream
    correlator:

    - {b transform prefilter} — rows the {!Transform} would drop anyway
      (noise programs, filtered ports) are dropped here, before they cost
      wire bytes. Kinds are {e not} rewritten: the downstream transform
      is idempotent on ids, so it re-derives the same classification.
    - {b local run coalescing} — consecutive same-context syscalls on the
      same flow that {!Cag_engine} would merge into one vertex anyway
      (multi-chunk SENDs of one logical message, multi-part responses)
      collapse into a single row carrying the first chunk's timestamp and
      the summed size — mirroring [Cag.Builder.grow_send] exactly.
      RECEIVE rows are never touched: a receive's completion timestamp
      depends on the matching send's total size, which only the
      downstream engine knows. *)

type t

val create : Transform.config -> t
(** One per agent, for the service transform the downstream correlator
    will apply (used to prefilter, never to rewrite); holds the memoised
    per-id transform decisions. *)

type result = {
  arena : Trace.Arena.t;  (** The reduced batch. *)
  rows_coalesced : int;  (** Merged into a preceding run head. *)
}

val reduce : t -> Trace.Arena.t -> result
(** Reduce one batch. Identity contract: feeding [result.arena] (plus
    every other host's reduced batches) to the monolithic correlator
    yields byte-identical patterns, breakdowns and path counts to feeding
    the raw batches, because every reduction replicates a merge or drop
    the downstream pipeline performs itself. *)
