(** Healthy-run profiles: what the detector compares the live stream to.

    A baseline captures, over a window of recent causal paths from a
    healthy run, (a) each pattern's latency-share profile — the paper's
    per-component latency percentages (§3.2, Fig. 15) averaged over the
    pattern's members, (b) the pattern mix — each pattern's share of all
    paths, (c) each pattern's mean end-to-end duration, and (d) the
    overall path throughput. Everything the streaming detector alarms on
    is a departure from one of these four.

    The learner is a bounded sliding window over the {e most recent}
    [capacity] paths, so freezing at the end of a load ramp yields a
    near-steady-state profile rather than one diluted by the ramp's
    lightly-loaded early paths.

    Baselines persist to JSON ({!to_json}/{!load}), so a profile learned
    on one healthy run can be reused to watch any number of later runs. *)

type pattern_profile = {
  signature : string;  (** Canonical pattern signature ({!Core.Pattern}). *)
  name : string;  (** Human-readable tier route. *)
  components : Core.Latency.component list;  (** Critical-path order. *)
  shares : float array;  (** Mean latency share per component, aligned. *)
  frequency : float;  (** Share of all learned paths, [0,1]. *)
  mean_duration_s : float;  (** Mean end-to-end latency, seconds. *)
  count : int;  (** Paths aggregated. *)
}

type t = {
  patterns : pattern_profile list;  (** Descending frequency. *)
  total_paths : int;
  span_s : float;  (** Stream time covered by the learned window. *)
  throughput_rps : float;  (** [total_paths / span_s]; 0 when unknowable. *)
}

val profile : pattern_profile -> (Core.Latency.component * float) list
(** The share profile as an association list, ready for
    {!Core.Analysis.compare_profiles}. *)

val find : t -> signature:string -> pattern_profile option

(** {1 Learning} *)

type builder

val builder : ?capacity:int -> unit -> builder
(** A sliding-window learner over the last [capacity] (default 400)
    finished paths. *)

val learn : builder -> Core.Cag.t -> unit
(** Feed one path; unfinished CAGs are ignored. *)

val seen : builder -> int
(** Paths currently inside the window (≤ capacity). *)

val freeze : builder -> t
(** Aggregate the window into a baseline. The builder stays usable (the
    detector never re-freezes, but tests may). *)

val of_paths : ?capacity:int -> Core.Cag.t list -> t
(** One-shot convenience over {!builder}/{!learn}/{!freeze}. *)

(** {1 Persistence} *)

val to_json : t -> Core.Json.t
val of_json : Core.Json.t -> (t, string) result

val load : path:string -> (t, string) result
(** Read a baseline file holding {!to_json}'s document; errors name the
    file and the offending field. *)
