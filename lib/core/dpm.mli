(** A DPM-style baseline: pairwise message causality graphs (ext-7).

    DPM (Miller, 1988) — the earliest black-box tracer the paper cites —
    instruments the kernel and tracks causality {e between pairs of
    messages}: an incoming message to an entity is linked to the next
    outgoing message(s) of that entity, and paths are whatever the
    resulting graph contains. The paper's critique (via Project5): "the
    existence of a path in the resulting graph does not necessarily mean
    that any real causal path followed all of those edges in that
    sequence".

    This module reproduces that behaviour so the critique can be
    quantified: build the pairwise graph from a trace, enumerate its
    entry-to-exit paths, and measure how many are real (match an oracle
    request) versus phantom (an artefact of overlapped requests sharing an
    entity). *)

type t

val build : Trace.Log.collection -> t
(** Build the pairwise causality graph from a BEGIN/END-transformed
    collection. Each entity's incoming message is linked to every outgoing
    message that follows it (until the entity's next incoming message) —
    DPM's kernel-level pairing, at thread granularity. *)

val message_count : t -> int

type path_stats = {
  paths_found : int;  (** Entry-to-exit paths enumerated (capped). *)
  real_paths : int;  (** Paths matching an oracle request (pid-level). *)
  phantom_paths : int;  (** Paths no request ever followed. *)
  truncated : bool;  (** Enumeration hit the cap (graph blow-up). *)
}

val evaluate :
  ?max_paths:int ->
  ?tolerance:Simnet.Sim_time.span ->
  ground_truth:Trace.Ground_truth.t ->
  t ->
  path_stats
(** Enumerate paths from BEGIN messages to END messages (default cap
    10 000) and classify each against the oracle with {!Accuracy}'s visit
    matching at thread granularity. Under concurrency the pairwise graph
    conflates overlapping requests, producing phantom paths — the
    imprecision PreciseTracer eliminates. *)
