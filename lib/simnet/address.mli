(** Network addressing: IPv4-style addresses, endpoints and flows.

    An address is stored as an int for cheap hashing; rendering follows
    dotted-quad notation so traces look like the paper's
    ["sender_ip:port-receiver_ip:port"] records. A [flow] is the directed
    4-tuple identifying one direction of a TCP connection — precisely the
    message-identifier key the Correlator's [mmap] indexes on. *)

type ip
(** An IPv4-style address. *)

val ip_of_string : string -> ip
(** [ip_of_string "10.0.0.1"] parses dotted-quad notation.
    @raise Invalid_argument on malformed input. *)

val ip_to_string : ip -> string

val ip_to_int : ip -> int
(** The address as a 32-bit integer (for compact encodings). *)

val ip_of_int : int -> ip
(** Inverse of {!ip_to_int}.
    @raise Invalid_argument outside [0, 2^32). *)

val ip_equal : ip -> ip -> bool

type endpoint = { ip : ip; port : int }

val endpoint : ip -> int -> endpoint
val endpoint_equal : endpoint -> endpoint -> bool
val pp_endpoint : Format.formatter -> endpoint -> unit
(** Rendered ["10.0.0.1:80"]. *)

type flow = { src : endpoint; dst : endpoint }
(** One direction of a connection: bytes travelling [src] -> [dst]. *)

val flow : src:endpoint -> dst:endpoint -> flow

val reverse : flow -> flow
(** The opposite direction of the same connection. *)

val flow_equal : flow -> flow -> bool
val pp_flow : Format.formatter -> flow -> unit
(** Rendered ["10.0.0.1:3456-10.0.0.2:80"], matching TCP_TRACE output. *)

module Flow_table : Hashtbl.S with type key = flow
(** Hash tables keyed by flow; the backing store for [mmap]-style indexes. *)
