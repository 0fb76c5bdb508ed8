(** Request-level log reduction.

    Applies a {!Policy} to a batch of raw host arenas. The key property —
    what makes this "request-level" rather than record-level — is that
    sampling decisions are taken per {e request}: the batch is first
    correlated (a throwaway {!Core.Correlator.correlate_arena} pass over a
    private telemetry registry, so pipeline self-profiles are not
    polluted), every raw row is attributed to the causal path it belongs
    to, and then whole paths are kept or dropped together. A SEND
    therefore never loses its RECEIVE, and surviving requests
    re-correlate into exactly the CAGs the full batch produced — only
    the {e mix} of requests thins out, which preserves pattern-frequency
    shares in expectation.

    Attribution is by provenance: every vertex of a finished or deformed
    path names the raw rows it was built from ({!Core.Cag.sources} — the
    creating syscall plus every chunk merged into it), so one int per row
    records its request, with no lookup on activity fields. Rows no path
    claims (unfilterable noise such as direct-to-database clients, plus
    name-filtered chatter) are the "non-request-causal" population that
    [drop_non_causal] removes. *)

type stats = {
  activities_before : int;
  activities_after : int;
  bytes_before : int;  (** {!Trace.Binary_format} encoded size, input. *)
  bytes_after : int;  (** Encoded size of the reduced collection. *)
  requests_total : int;  (** Causal paths found (finished + deformed). *)
  requests_kept : int;
  non_causal : int;  (** Activities attributed to no request. *)
  effective_p : float;
      (** The per-request keep probability actually used: the configured
          [p] for probabilistic sampling, the budget-derived one for
          adaptive, 1.0 otherwise. *)
}

val ratio : stats -> float
(** [bytes_before / bytes_after]; infinite when everything was dropped. *)

val pp_stats : Format.formatter -> stats -> unit

val apply :
  ?telemetry:Telemetry.Registry.t ->
  correlate:Core.Correlator.config ->
  policy:Policy.t ->
  Trace.Arena.t list ->
  Trace.Arena.t list * stats
(** Reduce one batch of raw arenas (one per host, rows numbered by
    {!Trace.Arena.origin}, as decoded or freshly appended arenas are).
    Returns one fresh arena per input, same host and order, holding the
    surviving rows in input order — empty when every row of its host was
    dropped. [correlate] supplies the entry points and window used to
    attribute rows to requests (its [transform] filters affect
    attribution only, never which rows survive — use the policy's
    [drop_programs] to actually delete by name). A {!Policy.none} policy
    returns the inputs themselves without correlating.

    Reduction telemetry (bytes before/after, requests seen/kept, dropped
    activities) is recorded into [telemetry] (default
    {!Telemetry.Registry.default}) under [pt_store_reduce_*]. Byte counts
    are the {!Trace.Binary_format} size of the non-empty arenas. *)
