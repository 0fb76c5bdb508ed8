(** A counting semaphore with FIFO waiters.

    Models the web tier's bounded backend-connection pool (mod_jk style):
    at most [capacity] connections to the app server exist at once; workers
    needing one past that wait inside the web tier — which is why, at
    extreme load, the paper sees the [httpd2httpd] latency share rise while
    [httpd2java] recedes (§5.4.1, 700 -> 800 clients). *)

type t

val create : engine:Simnet.Engine.t -> capacity:int -> t

val acquire : t -> (unit -> unit) -> unit
(** Run the continuation once a slot is available (FIFO). *)

val release : t -> unit
(** @raise Invalid_argument if no slot is held. *)

val waiting : t -> int
val peak_waiting : t -> int
