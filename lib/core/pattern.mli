(** Causal path patterns: classifying CAGs by shape (§3.2).

    Two CAGs belong to the same pattern when they are isomorphic — same
    graph shape with corresponding vertices of the same activity type and
    the same context information (host and program; pids/tids, sizes and
    timestamps are abstracted away). Because the engine adds vertices in
    causal order, the shape can be compared positionally: per vertex, its
    kind, its (host, program) entity and its labelled parent positions.
    The CAG holds those positions ({!Cag.t.verts}, {!Cag.vertex.pos}), so
    both walks read them directly, with no layout or search.

    {!classify} groups by a compact key over interned ids: the vertex's
    kind code, a dense (host, program) entity id taken from the vertex's
    context id, and its sorted (edge tag, parent position) pairs. In the
    same pass over each CAG it records the critical-path hop spans that
    {!Aggregate} reads, so no member's path is walked again.

    {!signature} is the rendering that gets persisted (bundle profiles,
    diagnosis baselines, digests): per vertex
    [kind/host/program<tagpos...;]. It is computed once per pattern, from
    its first member. Inside host and program names, ['\\'], ['/'], ['<']
    and [';'] are escaped with a ['\\'], so two patterns {!classify} keeps
    apart never share a signature. *)

type t = {
  signature : string;  (** {!signature_of} the first member. *)
  name : string;
      (** Human-readable tier route along the critical path, e.g.
          ["httpd>java>mysqld>java>mysqld>java>httpd"]. *)
  cags : Cag.t list;  (** Members, in input order. *)
  spans : Float.Array.t array;
      (** Critical-path hop spans of the finished members, in seconds:
          one column per hop in causal order, each holding one sample per
          finished member in member order ({!Latency.critical_path}'s
          hops and spans). Empty when no member is finished. *)
}

val count : t -> int

val signature_of : Cag.t -> string

val name_of : Cag.t -> string
(** Program route along the critical path (entity changes only). For
    unfinished CAGs, the route over all vertices in order. *)

val classify : Cag.t list -> t list
(** Group isomorphic CAGs; patterns ordered by descending population,
    ties by signature, then by first appearance. *)

val pp : Format.formatter -> t -> unit
