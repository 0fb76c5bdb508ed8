(** Interaction activities — the atoms the Correlator works on.

    An activity is one observed kernel-level interaction event. SEND and
    RECEIVE come straight from the probe points on [tcp_sendmsg] /
    [tcp_recvmsg]; BEGIN and END are produced by rewriting the entry-point
    SEND/RECEIVEs of the traced service (see {!Core.Transform}). Each
    activity carries the four attributes the paper logs: activity type,
    (local) timestamp, context identifier and message identifier. *)

type kind = Begin | End_ | Send | Receive

val kind_priority : kind -> int
(** The ranker's candidate priority: BEGIN < SEND < END < RECEIVE
    (lower fires first under Rule 2). *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val equal_kind : kind -> kind -> bool

val kind_to_code : kind -> int
(** The PTB1 wire code (also the {!Arena} kind column): BEGIN 0, SEND 1,
    END 2, RECEIVE 3. *)

val kind_of_code : int -> kind option

type context = { host : string; program : string; pid : int; tid : int }
(** The (hostname, program name, process ID, thread ID) tuple. *)

val equal_context : context -> context -> bool
val compare_context : context -> context -> int
val hash_context : context -> int
val pp_context : Format.formatter -> context -> unit

type message = { flow : Simnet.Address.flow; size : int }
(** The (sender ip:port, receiver ip:port, message size) tuple. The flow is
    always oriented in the direction of the bytes, for both SEND and
    RECEIVE activities. *)

type t = {
  kind : kind;
  timestamp : Simnet.Sim_time.t;  (** Local clock of [context.host]. *)
  context : context;
  message : message;
}

val equal : t -> t -> bool

val compare_by_time : t -> t -> int
(** Order by timestamp, breaking ties by context then kind; a total order
    used to sort per-node logs. *)

val pp : Format.formatter -> t -> unit
