(** The on-disk TCP_TRACE record format.

    One activity per line, in the paper's original layout:

    {v timestamp hostname program_name ProcessID ThreadID KIND sender_ip:port-receiver_ip:port message_size v}

    with [timestamp] in integer nanoseconds of the node's local clock and
    [KIND] one of [BEGIN]/[END]/[SEND]/[RECEIVE]. Printing then parsing is
    the identity (tested by a qcheck property). *)

val to_line : Activity.t -> string

val of_line : string -> (Activity.t, string) result
(** Parse one record; the error describes the first malformed field. *)
