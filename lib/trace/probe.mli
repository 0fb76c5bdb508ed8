(** The TCP_TRACE instrumentation layer.

    Attaching a probe to a {!Simnet.Tcp} stack registers an observer on the
    [tcp_sendmsg]/[tcp_recvmsg] probe points of every node. While enabled,
    each syscall is logged as a SEND/RECEIVE activity timestamped with the
    node's *local* clock, and costs [overhead] of extra latency on that
    node — the mechanism behind the paper's enable/disable comparison
    (Figs. 12-13). Each node gets its own log, as in the real deployment
    where files are collected per machine. *)

type t

val attach :
  stack:Simnet.Tcp.stack ->
  ?overhead:Simnet.Sim_time.span ->
  ?only:string list ->
  unit ->
  t
(** [overhead] is the per-traced-syscall cost while enabled; default 20 us,
    in line with reported SystemTap probe costs of the paper's era.
    [only] restricts instrumentation to the named hosts — the paper
    deploys TCP_TRACE on the three server tiers but not on the client
    machines; syscalls on other nodes are neither logged nor slowed.
    Default: every node. The probe starts {e disabled}. *)

val enable : t -> unit

val add_listener : t -> (Activity.t -> unit) -> unit
(** Invoke the callback on every activity as it is logged (after the log
    append), in registration order — the hook for live consumers such as
    {!Core.Online}. Listeners see nothing while the probe is disabled. *)

val exempt_program : t -> string -> unit
(** Processes of the named program are neither logged nor slowed on any
    node — how a tracer excludes itself. The collection plane's shipping
    daemons ([Collect.Agent]) register here so their own send/recv
    syscalls do not feed back into the trace they are shipping. *)

val logs : t -> Log.collection
(** One log per node that performed at least one traced syscall. Stable
    order (by hostname). *)

val activity_count : t -> int
