(** The bundle's [PTP1] causal-path table codec.

    The path table serialises every correlated CAG with stable ids and a
    {e back-link table}: per vertex, the [(host, record)] coordinates of
    the raw activity records that produced it, where [host] indexes
    {!decoded.link_hosts} and [record] indexes that host's log in the
    bundle's canonical row order ({!Reader.query} over
    {!Store.Query.all}). Every path
    node in a bundle therefore resolves to the exact stored bytes behind
    it — the micro end of the paper's §5.4 macro↔micro workflow. *)

type path = {
  cag : Core.Cag.t;
  links : (int * int) list array;
      (** Back-links per vertex, indexed by causal position; pairs are
          [(host index, record index)]. *)
}

type decoded = { link_hosts : string array; paths : path list }

val magic : string
(** ["PTP1"], the section's inner magic. *)

val encode : link_hosts:string array -> path list -> string
(** Deterministic: interning tables are filled in traversal order (from
    the vertices' {!Core.Cag.vertex.ctx_id}/[flow_id]), no wall-clock
    enters the payload. Each path's [links] is either one entry per
    vertex or [[||]], the no-link form a hierarchy shard ships.
    @raise Invalid_argument on any other length. *)

val decode : string -> pos:int -> len:int -> (decoded, string) result
(** Decode the section at [pos]/[len] inside the bundle string, rebuilding
    real {!Core.Cag.t} values via [Cag.Builder] (graph shape, flags and
    ids round-trip exactly, and vertex ids come from the section's
    tables; the vertices have no {!Core.Cag.sources}, the links hold
    them; patterns and latency breakdowns computed from
    the decoded CAGs are identical to the live run's). All errors name
    bundle-relative offsets. *)
