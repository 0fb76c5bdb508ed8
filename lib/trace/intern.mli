(** Process-wide intern tables for the binary-native hot path.

    The text-era pipeline paid a per-record price for every hostname,
    program name, context tuple and flow: fresh strings and records on
    decode, string hashing and comparison on every correlator step. These
    tables assign each distinct attribute a small dense {e id} once per
    process, so that

    - an {!Arena} row stores four ints and a byte, nothing boxed;
    - equality of contexts/flows on hot paths is integer equality;
    - materialising an {!Activity.t} reuses one canonical record per id
      (so [==] short-circuits structural comparison downstream).

    Ids are stable for the life of the process and never recycled; the
    tables only grow. All operations are domain-safe (one global mutex;
    inserts are rare after warm-up, lookups by id are a bounds check and
    an array read). Table sizes are exported as the [pt_intern_strings],
    [pt_intern_contexts] and [pt_intern_flows] gauges. *)

(** {1 Strings — hostnames and program names} *)

val string_id : string -> int
val string_of_id : int -> string
(** @raise Invalid_argument on an id never issued. *)

(** {1 Contexts} *)

val context_id : Activity.context -> int

val context_id_parts : host:int -> program:int -> pid:int -> tid:int -> int
(** [host]/[program] are {!string_id}s — the zero-string-allocation entry
    used by the native decoder.
    @raise Invalid_argument on string ids never issued. *)

val context_of_id : int -> Activity.context
(** The canonical record for this id: one shared allocation per distinct
    context, so two materialisations of the same id are [==]. *)

val context_parts_of_id : int -> int * int * int * int
(** [(host string id, program string id, pid, tid)]. *)

val compare_context_id : int -> int -> int
(** Consistent with {!Activity.compare_context} on the denoted contexts
    (equal ids compare equal without any lookup). *)

(** {1 Flows} *)

val flow_id : Simnet.Address.flow -> int

val flow_id_parts : src_ip:int -> src_port:int -> dst_ip:int -> dst_port:int -> int
(** ips as {!Simnet.Address.ip_to_int} values.
    @raise Invalid_argument outside the ip/port ranges. *)

val flow_of_id : int -> Simnet.Address.flow
(** Canonical shared record, as {!context_of_id}. *)

val flow_parts_of_id : int -> int * int * int * int
(** [(src ip, src port, dst ip, dst port)] as ints. *)

val reverse_flow_id : int -> int option
(** The id of the flow with source and destination swapped, if it has
    been interned; a lookup only, so the table does not grow. *)

(** {1 Introspection} *)

val counts : unit -> int * int * int
(** [(strings, contexts, flows)] currently interned. *)

(** {1 Tables keyed by ids} *)

module Table : Hashtbl.S with type key = int
(** Hash tables keyed by the ids of one domain. Ids are dense, so they
    hash to themselves. *)
