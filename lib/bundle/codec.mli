(** Bundle payload codecs: the [PTP1] causal-path table and the pattern
    profile JSON.

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

(** {1 Pattern profiles} *)

type component_stat = { comp : Core.Latency.component; share : float; mean_s : float }

type profile = {
  name : string;  (** Tier route, e.g. ["httpd>java>mysqld>java>httpd"]. *)
  signature : string;  (** {!Core.Pattern.signature_of} canonical form. *)
  count : int;
  cag_ids : int list;  (** Member path ids, in input order. *)
  mean_total_s : float;  (** 0 when the pattern has no finished member. *)
  components : component_stat list;  (** In critical-path appearance order. *)
}

val shares : profile -> (Core.Latency.component * float) list
(** The percentage profile in the form {!Core.Analysis.compare_profiles}
    consumes. *)

val profiles_of_cags : Core.Cag.t list -> profile list
(** Classify and aggregate — the packer's source of truth, identical to
    what the live pipeline reports ({!Core.Pattern.classify} order). *)

val profiles_to_json : profile list -> Core.Json.t
val profiles_of_json : Core.Json.t -> (profile list, string) result
