(** Component activity graphs (CAGs) — §3.2 of the paper.

    A CAG is the causal path of one request: a rooted directed acyclic
    graph whose vertices are activities and whose edges are either
    {e adjacent context relations} (x happened right before y in the same
    execution entity) or {e message relations} (x sent the message y
    received). Every vertex has at most two parents, and only a RECEIVE
    vertex may have two — one of each relation kind ({!validate} checks
    this structural invariant).

    Vertices are added in correlation order, which respects causality, so
    the vertex list is always a topological order. The CAG owns that
    order: its vertices sit in one array, and each vertex knows its
    position there. *)

type edge_kind = Context_edge | Message_edge

val pp_edge_kind : Format.formatter -> edge_kind -> unit

type vertex = private {
  mutable pos : int;
      (** The vertex's index in its CAG's [verts], set by {!Builder.create}
          and {!Builder.adopt}; [-1] while the vertex is an orphan. *)
  mutable activity : Trace.Activity.t;
      (** For merged SENDs/ENDs the size accumulates the whole logical
          message; for a matched RECEIVE it is the full message size and
          the timestamp is the completing chunk's. *)
  ctx_id : int;
      (** {!Trace.Intern} id of [activity.context], fixed at creation. *)
  flow_id : int;
      (** {!Trace.Intern} id of [activity.message.flow], for every kind
          (BEGIN and END included). The engine's merges and the path codec
          compare and encode these ids, never the records. *)
  mutable parents : (edge_kind * vertex) list;
  mutable children : (edge_kind * vertex) list;
  mutable cag : t option;  (** [None] while the vertex is an orphan. *)
  mutable unreceived : int;
      (** SEND bookkeeping: bytes not yet covered by RECEIVE activities. *)
  mutable rev_sources : int list;
      (** Provenance, newest first: one {!source} per input row folded
          into this vertex (the creating one plus each merged syscall), or
          {!no_row} for an input that came with no raw row — see
          {!sources}. A trace bundle's path table writes these as its
          back-links. *)
  mutable rev_pending_sources : int list;
      (** Engine bookkeeping on SEND vertices: the sources of partial
          RECEIVE chunks of the in-flight message, transferred to the
          RECEIVE vertex when the message completes. *)
}

and t = private {
  mutable cag_id : int;
  root : vertex;
  mutable verts : vertex array;
      (** The vertices in insertion (= causal) order, valid on
          [\[0, vertex_count)]: [verts.(v.pos) == v], the root at 0 and,
          for a finished CAG, the END last. *)
  mutable vertex_count : int;
  mutable finished : bool;
  mutable deformed : bool;
      (** The pipeline observed this path under degraded conditions (a
          straggler host was evicted, or a GC evicted one of its SENDs):
          the path may be missing activities. Orthogonal to [finished]. *)
}

(** {1 Source rows}

    A source is a raw input row, packed with its host index into one
    immediate int: [(host, row)] where [host] indexes the arenas the run
    was correlated from and [row] is the raw row
    ({!Trace.Arena.origin}) in that host's arena. *)

val row_bits : int
(** A source holds its row in its low [row_bits] (40) bits and its host
    above them, so a row is below [2^row_bits]. *)

val source : host:int -> row:int -> int
(** {!no_row} when [host] or [row] is negative. *)

val source_host : int -> int
val source_row : int -> int

val no_row : int
(** The source of an input that came with no raw row (the record
    adapter {!Cag_engine.step}, a decoded path vertex with no back-link). *)

module Builder : sig
  (** Mutating operations, reserved for the correlation engine. *)

  val fresh_row : ctx:int -> flow:int -> source:int -> Trace.Activity.t -> vertex
  (** An orphan vertex (no CAG, no edges) created by the given activity,
      with its {!Trace.Intern} context and flow ids and its {!source}. *)

  val fresh_vertex : Trace.Activity.t -> vertex
  (** {!fresh_row} with the ids interned from the record and {!no_row}. *)

  val create : cag_id:int -> vertex -> t
  (** A new unfinished CAG rooted at the given vertex (normally a BEGIN). *)

  val adopt : t -> vertex -> unit
  (** Append an orphan vertex to the CAG at position [vertex_count].
      @raise Invalid_argument if it already belongs to a CAG. *)

  val add_edge : edge_kind -> parent:vertex -> child:vertex -> unit
  (** @raise Invalid_argument if it would break the two-parent invariant. *)

  val grow_send : vertex -> int -> unit
  (** Merge a further SEND syscall's bytes into a SEND (or END) vertex. *)

  val consume : vertex -> int -> int
  (** [consume v n] subtracts [n] received bytes from [v.unreceived] and
      returns the new value (negative means a crossed message boundary). *)

  val set_full_size : vertex -> int -> unit
  (** Rewrite a RECEIVE vertex's size to the full logical message size. *)

  val refresh_receive : vertex -> timestamp:Simnet.Sim_time.t -> size:int -> unit
  (** Extend a RECEIVE vertex to a later completion of the same (grown)
      message: bump its timestamp and full size. *)

  val add_source : vertex -> int -> unit
  (** Record the {!source} of one more input folded into this vertex (a
      merged SEND/END syscall, a RECEIVE chunk). *)

  val stash_pending_source : vertex -> int -> unit
  (** On a SEND vertex: remember the source of a partial RECEIVE chunk of
      the in-flight message until a later chunk completes it. *)

  val take_pending_sources : vertex -> int list
  (** Drain the stashed chunks (in observation order), clearing the stash. *)

  val add_earlier_sources : vertex -> int list -> unit
  (** Record chunks observed {e before} the vertex's creating activity
      (they sort first in {!sources}). *)

  val finish : t -> unit

  val mark_deformed : t -> unit
  (** Flag the path as possibly incomplete (degraded-feed conditions); it
      is still emitted, so downstream consumers can weigh it. *)

  val renumber : t -> cag_id:int -> unit
  (** Rewrite the CAG's id. Used by the sharded correlator when merging
      per-epoch engines, whose local ids all start at zero, back into the
      single global id sequence the serial run would have assigned. *)
end

val sources : vertex -> int list
(** The raw rows this vertex stands for, as {!source}s in observation
    order: the creating row, then every syscall merged into it (multi-part
    SENDs/ENDs, the RECEIVE chunks of a message received piecewise).
    Non-empty for paths correlated from arenas
    ({!Cag_engine.step_ids} with rows) and for paths decoded from a
    bundle, whose back-links they are; empty on record-adapter paths
    ({!Cag_engine.step}) and on decoded path tables shipped without
    back-links (a hierarchy shard's). *)

val root : t -> vertex
val is_finished : t -> bool

val is_deformed : t -> bool
(** True when the pipeline flagged this path as possibly incomplete — see
    {!Builder.mark_deformed}. Deformed-but-finished paths are counted
    separately by {!Online} so degraded feeds surface in telemetry rather
    than silently skewing profiles. *)

val vertices : t -> vertex list
(** In insertion (= topological, = causal) order. *)

val size : t -> int

val begin_ts : t -> Simnet.Sim_time.t
(** Root timestamp (the entry node's local clock). *)

val end_ts : t -> Simnet.Sim_time.t
(** Timestamp of the last vertex added (the END for finished CAGs). *)

val duration : t -> Simnet.Sim_time.span
(** [end_ts - begin_ts]. Both stamps come from the entry node's clock for
    finished CAGs, so the value is skew-free. *)

val edges : t -> (vertex * edge_kind * vertex) list
(** Every (parent, kind, child), in child insertion order. *)

val validate : t -> (unit, string) result
(** Check the paper's structural invariants: only the root is
    parentless; at most two parents; two parents only on a RECEIVE, one
    per relation kind; every parent is in the same CAG at a smaller
    position (so the graph is acyclic and every vertex is reachable from
    the root); finished CAGs start with BEGIN and end with END. Error
    messages name vertices by position. *)

val contexts : t -> Trace.Activity.context list
(** Distinct contexts in first-touch order. *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing of vertices and their parent edges, by position. *)

val to_dot : t -> string
(** Graphviz rendering: red solid arrows for context relations, blue
    dashed for message relations — the paper's Fig. 1 conventions. *)
