(** Performance debugging from latency-percentage profiles (§5.4).

    The paper's methodology: compute the average causal path of the most
    frequent pattern under a healthy baseline and under the suspect
    condition ({!Aggregate.of_pattern} gives each as a {!profile}),
    compare per-component latency percentages, and reason from the
    components whose share changed dramatically:

    - a tier's internal share ([T2T]) rising points at tier [T] itself
      (the EJB_Delay and Database_Lock cases);
    - an interaction share ([A2B], with [A <> B]) rising points at the
      boundary: [B]'s admission path (accept queue, thread pool) or the
      network between them (the MaxThreads case);
    - several interactions adjacent to one tier rising together while
      that tier's internal share collapses points at the tier's network
      (the EJB_Network case). *)

type delta = {
  comp : Latency.component;
  baseline_pct : float;  (** Share in the baseline profile, [0,1]. *)
  observed_pct : float;
  change_pp : float;  (** observed - baseline, in percentage points /100. *)
}

(** What a suspect names — the methodology's three conclusions, as a
    structured value so downstream consumers (the streaming detector, the
    verdict scorer, JSON exports) can match on it instead of parsing a
    label. *)
type subject =
  | Tier of string  (** The tier itself: its internal share rose. *)
  | Tier_network of string
      (** The tier's network: surrounding interactions rose together while
          the tier's internal share collapsed. *)
  | Interaction of { src : string; dst : string }
      (** The [src]->[dst] boundary: admission at [dst] (accept queue,
          thread pool) or the network between them. *)

val subject_label : subject -> string
(** ["tier java"], ["network of tier java"], ["interaction httpd->java"]. *)

type suspect = {
  subject : subject;  (** Tier or interaction under suspicion. *)
  reason : string;  (** One-sentence justification citing the deltas. *)
  severity : float;  (** Magnitude of the supporting change, [0,1]. *)
}

type report = { deltas : delta list; suspects : suspect list }

val compare_profiles :
  baseline:(Latency.component * float) list ->
  observed:(Latency.component * float) list ->
  report
(** [deltas] covers the union of components, sorted by decreasing
    |change|; [suspects] is ranked by severity. Components absent from one
    profile count as 0 there. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Pattern profiles}

    One pattern's §5.4 summary: its population and its average causal
    path's per-component latency share and mean, as
    {!Aggregate.of_pattern} computes them. The offline [diagnose]
    profiles two correlated runs; a bundle persists the packed run's
    profiles as its [patterns] section (docs/BUNDLE.md); the live
    detector profiles each pattern's recent window. *)

type component_stat = { comp : Latency.component; share : float; mean_s : float }

type profile = {
  name : string;  (** Tier route, e.g. ["httpd>java>mysqld>java>httpd"]. *)
  signature : string;  (** {!Pattern.signature_of} canonical form. *)
  count : int;
  cag_ids : int list;  (** Member path ids, in input order. *)
  mean_total_s : float;  (** 0 when the pattern has no finished member. *)
  components : component_stat list;
      (** In critical-path appearance order; empty when the pattern has
          no finished member. *)
}

val shares : profile -> (Latency.component * float) list
(** The components' shares, ready for {!compare_profiles}. *)

val profiles_to_json : profile list -> Json.t
val profiles_of_json : Json.t -> (profile list, string) result

(** {1 Comparing two runs} *)

type pair = {
  baseline : profile;
  observed : profile;  (** Same signature as [baseline]. *)
  report : report;  (** [baseline]'s shares against [observed]'s. *)
}

val compare_runs :
  ?pattern:string ->
  baseline:profile list ->
  observed:profile list ->
  unit ->
  (pair list, string) result
(** Pair each observed profile, in order, with the baseline profile of
    the same signature (a pattern is a class of isomorphic CAGs, so two
    patterns sharing a route name are still told apart), and compare
    their shares. Pairs where either side has no components are skipped.
    With [pattern], only the profiles of that name take part.

    Errors: ["pattern \"P\" absent from the baseline run"] (or
    [observed run]) when [pattern] names no profile of that run, and
    ["no pattern present in both runs"] when no pair is left. *)

val culprit : pair list -> suspect option
(** The top suspect of the first pair: the subject [diagnose] and
    [bundle diff] blame. *)

val report_fields : report -> (string * Json.t) list
(** A report's [deltas] and [suspects], as fields for the caller's JSON
    object. *)

val suspect_to_json : suspect -> Json.t
(** [{"subject", "severity", "reason"}]. *)
