(** Raw-activity preprocessing: BEGIN/END recognition and attribute
    filtering (§3.1 and §4.3 of the paper).

    TCP_TRACE only emits SEND and RECEIVE. PreciseTracer distinguishes
    BEGIN and END by the service's entry communication channels: a RECEIVE
    whose destination is an entry endpoint (e.g. the web server's port 80)
    marks the start of a request; a SEND from that endpoint on the same
    connection marks its end.

    Attribute filters implement the first line of noise defence: dropping
    activities by program name, IP or port before they reach the ranker. *)

type config = {
  entry_points : Simnet.Address.endpoint list;
      (** The service's front-tier listening endpoints. *)
  drop_programs : string list;
      (** Program names filtered out (e.g. ["rlogin"; "sshd"; "mysql"]). *)
  drop_ports : int list;
      (** Ports filtered out: any activity whose flow touches one. *)
}

val config :
  entry_points:Simnet.Address.endpoint list ->
  ?drop_programs:string list ->
  ?drop_ports:int list ->
  unit ->
  config

val classify : config -> Trace.Activity.t -> Trace.Activity.t option
(** [None] if filtered out; otherwise the activity with its kind rewritten
    to BEGIN/END when it crosses an entry point. *)

val apply : config -> Trace.Log.collection -> Trace.Log.collection

(** {1 Native path}

    Classification depends only on interned context and flow ids, so the
    arena path memoises one decision per distinct id instead of matching
    strings and endpoints per record. *)

type memo
(** Per-run decision cache; create one per feed with {!memo}. *)

val memo : config -> memo

val classify_row : memo -> Trace.Arena.t -> int -> int
(** The rewritten {!Trace.Activity.kind_to_code} of row [i], or [-1] when
    the row is filtered out. *)

val apply_native : config -> Trace.Arena.t list -> Trace.Arena.t list
(** {!apply} in the native representation (same per-record semantics); host arenas are preserved even when every
    row is dropped, like {!apply} keeps empty logs, and each is sorted
    into log order ({!Trace.Arena.sort_by_time}), as {!apply}'s logs
    are. Each output arena has an origin column: every row knows the
    input row it came from ({!Trace.Arena.origin}). *)
