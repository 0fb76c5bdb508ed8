(** The engine: constructing CAGs from ranked candidates (§4.2, Fig. 3).

    The engine owns the two index maps of the paper:

    - [mmap] maps a message identifier (the connection 4-tuple, oriented
      sender->receiver) to the outstanding unmatched SEND vertices of that
      flow, in FIFO order;
    - [cmap] maps a context identifier to the latest activity vertex
      observed in that execution entity.

    Candidates are handled by activity type, following the paper's
    pseudo-code, with the clarifications listed in DESIGN.md: consecutive
    SENDs merge only when they continue the {e same flow}; multi-part
    responses merge consecutive ENDs likewise; a RECEIVE joins its CAG
    only once the accumulated received bytes cover the (merged) SEND — the
    n-to-n matching of the paper's Fig. 4; and the two-parent rule for
    RECEIVE applies the thread-reuse check: the context edge is added only
    when both parents already lie in the same CAG. *)

type stats = {
  cags_started : int;
  cags_finished : int;
  send_merges : int;  (** SEND syscalls folded into an earlier SEND vertex. *)
  end_merges : int;  (** END syscalls folded into an earlier END vertex. *)
  receive_merges : int;
      (** RECEIVE completions folded into an existing RECEIVE vertex whose
          SEND grew after first being fully matched (Rule 1 can deliver a
          receive ahead of the sender's continuation syscalls). *)
  partial_receives : int;  (** RECEIVEs that left a SEND partly unmatched. *)
  unmatched_receives : int;  (** RECEIVEs with no mmap entry (noise slipping
                                 past the ranker, or loss). *)
  thread_reuse_blocked : int;
      (** Context edges suppressed because the parents lay in different
          CAGs (recycled thread serving a new request). *)
  orphans : int;  (** Vertices correlated outside any CAG. *)
  crossed_boundaries : int;
      (** RECEIVEs that drained a SEND past its bytes: a read straddling
          into a continuation syscall not yet ranked (DESIGN.md
          clarification 5), or one spanning two logical messages. *)
  mmap_entries : int;  (** Outstanding SEND vertices right now. *)
  live_vertices : int;  (** Vertices of unfinished CAGs plus orphans. *)
  peak_live_vertices : int;
  evicted_sends : int;
      (** SEND vertices still attached to a CAG when {!gc} evicted them.
          Their owning open CAG is flagged deformed (it would otherwise
          stay unfinished and uncounted forever). *)
}

type t

val create : unit -> t

val has_mmap_send : t -> int -> bool
(** Rule 1's probe, by {!Trace.Intern} flow id; wire this into
    {!Ranker.create}. *)

val step_ids : t -> ctx:int -> flow:int -> source:int -> Trace.Activity.t -> unit
(** Correlate one candidate, given with its {!Trace.Intern} context and
    flow ids ({!Ranker.candidate_ctx}, {!Ranker.candidate_flow}) and its
    raw row as a {!Cag.source} ({!Ranker.candidate_host},
    {!Ranker.candidate_origin}). Both maps are keyed on the ids, and
    SEND/END merges and the reuse of a grown message's RECEIVE compare
    ids, so the hot path makes no intern lookup and no record
    comparison. Each vertex keeps its ids and the sources of every input
    folded into it. Candidates must arrive in ranker order. *)

val step : t -> Trace.Activity.t -> unit
(** {!step_ids} with the ids interned from the record and
    {!Cag.no_row}: the resulting vertices have no {!Cag.sources}. *)

val finished : t -> Cag.t list
(** Completed CAGs, in completion order. *)

val finished_count : t -> int
(** [List.length (finished t)] in O(1). A step completes at most one CAG
    (its END correlated): compare the count around a step to learn
    whether it did. *)

val last_finished : t -> Cag.t
(** The most recently completed CAG. Raises [Failure] before the first. *)

val unfinished : t -> Cag.t list
(** CAGs begun but not yet (or never) completed — deformed paths under
    activity loss — in creation order. *)

val stats : t -> stats

val live_vertices : t -> int
val mmap_entries : t -> int
(** Cheap accessors for per-step memory sampling (see {!Correlator}). *)

val gc : t -> older_than:Simnet.Sim_time.t -> int
(** Evict [mmap] entries whose SEND timestamp precedes [older_than] and
    returns how many were dropped. Unmatched sends accumulate on long
    traces (responses to noise clients whose receives were filtered
    out); by the ranker's contract, a receive arriving more than the
    skew allowance after its send is noise anyway, so evicting past
    [current time - allowance] never costs a correlation. Orphan sends
    evicted this way also leave the live-vertex count. *)
