(** The bundle's [PTP1] causal-path table codec.

    The path table serialises every correlated CAG with stable ids and,
    per vertex, its {e back-links}: the [(host, record)] coordinates of
    the raw activity records that produced it — the vertex's
    {!Core.Cag.sources}, where [host] indexes {!decoded.link_hosts} and
    [record] indexes that host's log in the bundle's canonical row order
    ({!Reader.query} over {!Store.Query.all}). Every path node in a
    bundle therefore resolves to the exact stored bytes behind it — the
    micro end of the paper's §5.4 macro↔micro workflow. *)

type path = { cag : Core.Cag.t }
(** A decoded path; each vertex's back-links are its
    {!Core.Cag.sources}. *)

type decoded = { link_hosts : string array; paths : path list }

type encoded = {
  bytes : string;
  links : int;  (** Back-links written. *)
  unresolved_links : int;  (** Vertex sources with no raw row ({!Core.Cag.no_row}). *)
}

val magic : string
(** ["PTP1"], the section's inner magic. *)

val encode : link_hosts:string array -> Core.Cag.t list -> encoded
(** Deterministic: interning tables are filled in traversal order (from
    the vertices' {!Core.Cag.vertex.ctx_id}/[flow_id]), no wall-clock
    enters the payload. Each vertex's back-links are its
    {!Core.Cag.sources}, written in that order in the same pass and
    counted; a source's host indexes [link_hosts]. With no link hosts no
    links are written (and none counted) — the form a hierarchy shard
    ships.
    @raise Invalid_argument on a source host past [link_hosts]. *)

val decode : string -> pos:int -> len:int -> (decoded, string) result
(** Decode the section at [pos]/[len] inside the bundle string, rebuilding
    real {!Core.Cag.t} values via [Cag.Builder] (graph shape, flags and
    ids round-trip exactly, and vertex ids come from the section's
    tables; each vertex's back-links become its {!Core.Cag.sources}, so
    re-encoding a decoded table gives the same bytes; patterns and
    latency breakdowns computed from the decoded CAGs are identical to
    the live run's). All errors name bundle-relative offsets; a link row
    of [2^]{!Core.Cag.row_bits} or more is one. *)
