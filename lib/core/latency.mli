(** Component latency accounting over a CAG (§3.2, Figs. 15 and 17).

    The paper reports, for an average causal path, the share of end-to-end
    time spent in each {e component}: either inside one tier
    ([httpd2httpd], [java2java], ...) or in one tier-to-tier interaction
    ([httpd2java], [mysqld2java], ...). For the synchronous request/
    response services in scope, those components tile the request's
    {e critical path}: the chain obtained by walking back from END and
    following, at each RECEIVE, its message parent (the true causal
    antecedent) and otherwise its context parent.

    Hop latencies are local-timestamp differences. Hops inside one node
    are exact; cross-node hops absorb the clock skew between the two nodes
    (the paper accepts the same inaccuracy) — and because every such skew
    is traversed once in each direction, the hop latencies still
    telescope to the skew-free end-to-end duration.

    This module reads one CAG; {!Aggregate.of_pattern} averages a
    pattern's critical paths into the per-component profile. *)

type component = { src : string; dst : string }
(** [src]/[dst] are program names. A hop within one entity has
    [src = dst]. *)

val component_label : component -> string
(** ["httpd2java"] — the paper's naming. *)

val equal_component : component -> component -> bool

type hop = {
  comp : component;
  parent : Cag.vertex;
  child : Cag.vertex;
  span : Simnet.Sim_time.span;
}

val causal_parent : Cag.vertex -> Cag.vertex
(** The vertex the critical path steps back to: a RECEIVE's message
    parent, any other vertex's context parent, either falling back to the
    parent of the other kind. A vertex with no parent (the root) is its
    own causal parent. *)

val critical_path : Cag.t -> hop list
(** The BEGIN->END chain of a finished CAG, in causal order.
    @raise Invalid_argument on an unfinished CAG. *)

val breakdown : Cag.t -> (component * Simnet.Sim_time.span) list
(** Critical-path hop spans summed per component, in first-appearance
    order. The spans sum to {!Cag.duration}. *)
