(** A cluster node: hostname, address, local clock, CPU, and NIC.

    Mirrors the paper's testbed machines (2-way SMP, 100 Mbps Ethernet).
    The NIC is a pair of serialising links (transmit and receive) so a
    bandwidth downgrade throttles traffic in both directions, as the
    paper's EJB_Network fault does. Nodes also allocate process/thread ids
    and ephemeral ports, so context identifiers are unique per node. *)

type t

val create :
  engine:Engine.t ->
  hostname:string ->
  ip:Address.ip ->
  cores:int ->
  ?clock:Clock.t ->
  ?switch_penalty:float ->
  ?bandwidth_bps:float ->
  ?latency:Sim_time.span ->
  unit ->
  t
(** Defaults: perfect clock, no context-switch penalty, 100 Mbps NIC,
    100 us one-way latency. *)

val hostname : t -> string
val ip : t -> Address.ip
val clock : t -> Clock.t
val cpu : t -> Cpu.t
val engine : t -> Engine.t

val tx : t -> Link.t
(** Egress link (pays the one-way propagation latency). *)

val rx : t -> Link.t
(** Ingress link (serialisation only). *)

val set_nic_bandwidth_bps : t -> float -> unit
(** Degrade or restore both directions of the NIC. *)

val local_time : t -> Sim_time.t
(** The node's local clock reading at the current global instant — what a
    tracer running on this node stamps on activities. *)

val fresh_port : t -> int
(** Ephemeral port, starting at 32768. *)

val spawn : t -> program:string -> Proc.t
(** A new single-threaded process of [program] (tid = pid, as for Linux
    main threads). *)

val spawn_thread : t -> of_:Proc.t -> Proc.t
(** A new kernel thread inside [of_]'s process. *)
