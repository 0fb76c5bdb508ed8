(** Wire the collection plane into a {!Tiersim.Service} deployment.

    [install] adds a collector node ([collect1], off the traced set) to
    the service's network, starts one {!Agent} per traced server node
    (web, app, db), exempts the agents' processes from the probe, and
    feeds the collector's in-order delivery into a {!Core.Online}
    correlation — so a single simulated run covers workload, tracing,
    shipping and online correlation, all sharing one virtual clock and
    competing for the same NICs and CPUs.

    [Tiersim.Faults.Agent_crash] entries in the service's fault list are
    translated into scheduled {!Agent.crash} / {!Agent.restart} calls.

    Call {!finish} after the simulation drains to close the online run
    (resolving any still-open windows). *)

type config = {
  agent : Agent.config;  (** Per-host agent knobs, the same on every host. *)
  port : int;  (** Collector listen port. *)
}

val default_config : config
(** {!Agent.default_config} (no program filter), port 7441. *)

val install_replica :
  telemetry:Telemetry.Registry.t ->
  agent:Agent.config ->
  port:int ->
  on_arena:(Trace.Arena.t -> unit) ->
  replica:int ->
  Tiersim.Service.t ->
  Collector.t * Agent.t list
(** The replica installer {!install} and {!Hierarchy.install} share:
    create replica [replica]'s collector node ([collect<replica+1>] at
    [10.<replica>.9.1], off the traced set) listening on [port] and
    delivering into [on_arena], start one agent with config [agent] on
    each of the web, app and db nodes (in that order), and schedule the
    service's [Agent_crash] faults on them. *)

type t

val install :
  ?telemetry:Telemetry.Registry.t ->
  ?config:config ->
  ?writer:Store.Writer.t ->
  ?on_path:(Core.Cag.t -> unit) ->
  Tiersim.Service.t ->
  t
(** Must run before the simulation starts (the agents dial during the
    run's first instants). [writer] tees every delivered row into a
    trace store: each delivered arena goes row by row through
    {!Store.Writer.observe_row} (raw, before the transform) and then to
    {!Core.Online.observe_arena}. [on_path] fires
    as each causal path completes out of the in-band feed, at the
    simulated instant the collector's delivered records support it — the
    hook a live diagnosis plane ([Diagnose.Live]) consumes. *)

val online : t -> Core.Online.t
val collector : t -> Collector.t
val agents : t -> Agent.t list
val agent : t -> host:string -> Agent.t option

val finish : t -> unit
(** Close the online correlation, resolving every window the delivered
    records can support (a drained simulation has already flushed and
    acked everything a live agent held). Idempotent. *)
