(** Bundle diff: compare two recordings — pattern-mix drift plus
    per-pattern latency-share deltas (§5.4) naming culprit subjects.

    Bundle A is the baseline, bundle B the observed run. Patterns are
    matched by signature, not by route name: two patterns with the same
    route (a mesh's fan-out orders, say) stay two rows and two pairs.
    The per-pattern reports and the culprit are
    {!Core.Analysis.compare_runs} and {!Core.Analysis.culprit} over the
    two bundles' profiles, the comparison the offline [diagnose] command
    makes, so [bundle diff control.ptz fault.ptz] and [diagnose] agree on
    the blamed subject. *)

type mix_delta = {
  name : string;  (** The pattern's route name; several rows may share one. *)
  signature : string;  (** Unique within a diff's mix. *)
  count_a : int;
  count_b : int;
  freq_a : float;  (** Fraction of A's paths, [0, 1]. *)
  freq_b : float;  (** Fraction of B's paths, [0, 1]. *)
}

type t = {
  bundle_a : string;
  bundle_b : string;
  total_a : int;
  total_b : int;
  mix : mix_delta list;  (** Sorted by |frequency shift|, largest first. *)
  reports : Core.Analysis.pair list;
      (** A's profile as baseline, B's as observed, in B's classify
          order; empty when no pattern with components is in both. *)
  culprit : Core.Analysis.suspect option;
}

val diff : Reader.t -> Reader.t -> (t, string) result
val pp : Format.formatter -> t -> unit
val to_json : t -> Core.Json.t
