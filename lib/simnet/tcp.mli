(** A reliable, in-order, connection-oriented transport with
    syscall-granularity observation points.

    This is the simulated analogue of the Linux TCP stack that the paper
    instruments: every [send] models one [tcp_sendmsg] call and every
    completed [recv] one [tcp_recvmsg] call, and registered observers see
    exactly those events — nothing else. Byte streams are not segmented by
    the transport itself; n-to-n send/recv asymmetry arises the same way it
    does in practice, from applications writing a message in several sends
    and reading into bounded buffers, with kernel-side coalescing when the
    reader lags.

    All operations are continuation-passing: the simulator is
    single-threaded and blocking is represented by parking a callback. *)

type stack
type socket

type syscall_kind = Syscall_send | Syscall_recv

type syscall = {
  node : Node.t;  (** Node on which the syscall executed. *)
  proc : Proc.t;  (** Execution entity that performed it. *)
  kind : syscall_kind;
  flow : Address.flow;  (** Direction of the bytes: sender -> receiver. *)
  size : int;  (** Bytes sent, or returned by this recv. *)
}

val create_stack : engine:Engine.t -> stack

val add_observer : stack -> (syscall -> unit) -> unit
(** Register a tracer. Observers run synchronously at the syscall's virtual
    instant, in registration order. *)

val set_syscall_overhead : stack -> (Node.t -> Proc.t -> Sim_time.span) -> unit
(** Model instrumentation overhead: each traced syscall costs the given
    span of {e CPU work} on its node before the caller continues, so the
    cost compounds under load like a real probe handler's. The hook sees
    the calling process so a tracer can exempt its own collection
    daemons. Default: zero. *)

val listen : stack -> Node.t -> port:int -> accept:(socket -> unit) -> unit
(** Bind a listener. [accept] fires (with the server-side socket) when a
    connection request arrives — the kernel-level accept; the application
    decides when to start reading.
    @raise Invalid_argument if the port is already bound on that node. *)

val unlisten : stack -> Node.t -> port:int -> unit

val connect :
  stack -> node:Node.t -> proc:Proc.t -> dst:Address.endpoint -> k:(socket -> unit) -> unit
(** Open a connection from an ephemeral port on [node] to [dst]. [k] fires
    with the client-side socket after the simulated handshake round-trip.
    @raise Invalid_argument if nothing listens at [dst]. *)

val send : stack -> socket -> proc:Proc.t -> size:int -> k:(unit -> unit) -> unit
(** One [tcp_sendmsg] syscall of [size] bytes ([size] > 0). Observers fire
    now; bytes are delivered through both NICs' links; [k] continues the
    caller after any instrumentation overhead. *)

val recv : stack -> socket -> proc:Proc.t -> max:int -> k:(int -> unit) -> unit
(** One [tcp_recvmsg] syscall reading at most [max] bytes ([max] > 0).
    Returns as soon as any bytes are available (possibly coalescing several
    sends); parks until data arrives otherwise. [k 0] signals that the peer
    closed with no data left — no activity is logged for EOF, mirroring the
    probe points. *)

val close : stack -> socket -> unit
(** Close both directions from this side. The peer's pending and future
    recvs return 0 once in-flight data has drained. Idempotent. *)

val syscall_count : stack -> int
(** Total send+recv syscalls executed (traced or not). *)

val conn_id : socket -> int
(** Identifier shared by both sockets of a connection; unique per stack. *)

val is_client_side : socket -> bool
(** True for the socket returned by [connect], false for [accept]'s. *)
