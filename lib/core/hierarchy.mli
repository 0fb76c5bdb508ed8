(** The hierarchical correlation tree's root level (scale-out, §6 outlook).

    A cluster-sized deployment cannot funnel every record to one
    correlator. The hierarchy splits the work into three levels:

    - {e level 0} — per-host agents run a partial-correlation pass
      ({!Partial}) and ship reduced frames;
    - {e level 1} — N collector shards, each owning a partition of the
      {e entry connections} (in the cluster preset: of the service
      replicas), run {!Online} over the partial feeds of their partition
      only;
    - {e level 2} — the root splices the shards' finished paths into the
      global sequence and serves patterns and latency breakdowns.

    Entry flows never span partitions, so every causal path completes
    inside exactly one shard and the root-level merge is a pure re-keying
    splice — the same id-rewriting {!Shard} uses to stitch per-epoch
    engines back into the serial id sequence ({!Cag.Builder.renumber}).
    This module is that root level: the canonical order, the splice, and
    the digest that makes "hierarchical {e equals} monolithic" checkable
    as string equality. The shard-to-root message itself is a PTP1 path
    table with no back-links ([Bundle.Codec]), decoded by
    [Collect.Hierarchy] before it reaches {!splice}. *)

val compare_paths : Cag.t -> Cag.t -> int
(** The canonical global order on causal paths: root (BEGIN) timestamp,
    then root context, then end timestamp, then size, then pattern
    signature. Replica entry nodes have disjoint contexts, so the order
    is total on any real cluster feed and independent of which shard a
    path completed in. *)

val canonicalize : ?first_id:int -> Cag.t list -> Cag.t list
(** Sort into canonical order and re-key [cag_id]s to consecutive
    positions from [first_id] (default 0) via {!Cag.Builder.renumber} —
    the ids are rewritten in place. Applying this to both a spliced
    shard output and a monolithic result makes their digests comparable
    byte-for-byte. *)

val splice : Cag.t list list -> Cag.t list
(** Merge per-shard path lists into the canonical global sequence:
    [splice shards = canonicalize (List.concat shards)]. *)

val render : finished:Cag.t list -> deformed:Cag.t list -> string
(** The digest preimage, using the [cag_id]s as stored: path counts,
    every {!Pattern} with its member ids, component-latency percentages
    and end-to-end tail percentiles ([%.9f] — any drift in a breakdown
    changes the bytes). {!Shard.digest} renders the same bytes for a
    monolithic {!Correlator.result}. *)

val digest : finished:Cag.t list -> deformed:Cag.t list -> string
(** [render] after {!canonicalize} of both lists (finished first, then
    deformed, one id space), hex-digested. Equal digests mean equal path
    populations, patterns and breakdowns. Note the in-place re-keying of
    [cag_id]s, as in {!canonicalize}. *)

val digest_result : Correlator.result -> string
(** {!digest} of a monolithic result — the comparison baseline for a
    hierarchical run over the same feed. *)
