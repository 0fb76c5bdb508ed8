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

(** Classification depends only on interned context and flow ids, so
    one decision is memoised per distinct id instead of matching strings
    and endpoints per record. *)

type memo
(** Per-run decision cache; create one per feed with {!memo}. It holds
    two [int] arrays indexed by the dense {!Trace.Intern} context and
    flow ids, [-1] while an id is undecided, so a row's decision is two
    array reads. An id issued after the memo was created (a flow first
    seen mid-feed) grows its array. Not domain-safe: one memo per
    domain. *)

val memo : config -> memo

val classify_row : memo -> Trace.Arena.t -> int -> int
(** The rewritten {!Trace.Activity.kind_to_code} of row [i], or [-1] when
    the row is filtered out. *)

val entry_unreached : config -> string
(** The error, naming the entry endpoints, for a run in which no row
    classifies as BEGIN: no flow reaches an entry endpoint. Every BEGIN
    starts a path, so such a run is the one with no finished and no
    unfinished path. *)

val apply_native : config -> Trace.Arena.t list -> Trace.Arena.t list
(** {!classify_row} over every row: filtered rows are dropped and the
    rest keep their rewritten kind. Host arenas are preserved even when
    every row is dropped, and each is sorted into log order
    ({!Trace.Arena.sort_by_time}), since the entry rewrite changes kind
    priorities. Each output arena has an origin column: every row knows
    the input row it came from ({!Trace.Arena.origin}). *)
