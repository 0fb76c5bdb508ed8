(** Healthy-run profiles: what the detector compares the live stream to.

    A baseline captures, over a window of recent causal paths from a
    healthy run, (a) each pattern's §5.4 profile — the
    {!Core.Analysis.profile} of its average causal path, the same one
    offline [diagnose], [bundle diff] and a bundle's [patterns] section
    read: per-component latency shares (§3.2, Fig. 15) and the mean
    end-to-end latency, (b) the pattern mix — each pattern's share of
    all paths ({!frequency}), and (c) the overall path throughput.
    Everything the streaming detector alarms on is a departure from one
    of these.

    The learner is a bounded sliding window over the {e most recent}
    [capacity] paths, so freezing at the end of a load ramp yields a
    near-steady-state profile rather than one diluted by the ramp's
    lightly-loaded early paths.

    Baselines persist to JSON ({!to_json}/{!load}), so a profile learned
    on one healthy run can be reused to watch any number of later runs. *)

type t = {
  profiles : Core.Analysis.profile list;
      (** {!Core.Aggregate.profiles_of_cags} of the learned window: most
          frequent first. *)
  total_paths : int;
  span_s : float;  (** Stream time covered by the learned window. *)
  throughput_rps : float;  (** [total_paths / span_s]; 0 when unknowable. *)
}

val find : t -> signature:string -> Core.Analysis.profile option

val frequency : t -> Core.Analysis.profile -> float
(** The pattern's share of all learned paths, [count / total_paths]. *)

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
(** Profile the window into a baseline. The builder stays usable (the
    detector never re-freezes, but tests may). *)

val of_paths : ?capacity:int -> Core.Cag.t list -> t
(** One-shot convenience over {!builder}/{!learn}/{!freeze}. *)

(** {1 Persistence}

    A [pt-baseline-2] document: the three scalars above plus the
    profiles as {!Core.Analysis.profiles_to_json} writes them, under
    ["patterns"]. Any other format tag is refused. *)

val to_json : t -> Core.Json.t
val of_json : Core.Json.t -> (t, string) result

val load : path:string -> (t, string) result
(** Read a baseline file holding {!to_json}'s document; errors name the
    file and the offending field. *)
