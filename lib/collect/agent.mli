(** The per-host collection agent.

    One agent runs on each traced node, as the daemon the paper's
    successor work deploys next to TCP_TRACE. It subscribes to the probe
    ({!Trace.Probe.add_listener}), keeps only its own host's records,
    optionally drops the rows of named programs, cuts batches into PTC1
    frames ({!Frame}) and ships them to the collector
    over the {e simulated} network — so shipping consumes NIC bandwidth
    and node CPU, and the tracing overhead measured by the Figs. 12-13
    methodology now includes its collection cost. The agent's own
    process ([ptagent]) must be exempted from the probe
    ({!Trace.Probe.exempt_program}) or its sends would be traced and
    shipped in turn; {!Deploy.install} does this.

    {1 Buffering, backpressure, loss}

    Records flow observe -> open batch -> encode queue -> frame spool.
    [max_spool_records] bounds the sum; past it:

    - [Drop_oldest]: the oldest {e not-yet-transmitted} spooled frames
      are evicted (reason [evicted]) to admit the new record; frames
      already sent and awaiting acknowledgement are never evicted, so a
      record the collector may have is never double-counted as dropped.
      If nothing is evictable the new record is dropped instead.
    - [Block]: the new record is dropped (reason [buffer_full]) — the
      kernel-ring semantics of a reader that cannot keep up.

    Frames stay spooled until the collector's cumulative ack covers
    them. A {!crash} closes the connection and loses the open batch and
    encode queue (reason [crash]); records observed while down are
    dropped (reason [agent_down]); the spool survives — the disk-backed
    frame store of a real agent — and {!restart} reconnects and resends
    everything after the last acknowledged frame. The collector
    deduplicates, so delivery is exactly-once per frame even though the
    wire sees retransmits. *)

type overflow = Drop_oldest | Block

type config = {
  batch_records : int;
      (** Cut a frame after this many records, or after 50 ms of
          simulated time, whichever is first. *)
  max_spool_records : int;  (** Bound on batch + encode queue + spool. *)
  overflow : overflow;
  drop_programs : string list;
      (** Programs whose rows are dropped before framing, the same
          per-context decision as {!Core.Transform}'s program filter;
          [[]] ships every row. The agent reduces nothing by request:
          it sees one host's rows, while a request is recognised at the
          entry tier and spans every tier, so request-level reduction
          ({!Store.Policy}'s [causal] and sampling) is the collector
          side's, over the merged stream. *)
  partial : Core.Transform.config option;
      (** Agent-local partial correlation (hierarchy level 0,
          {!Core.Partial}) for the service transform given: prefilter and
          run coalescing before framing. [None] ships batches
          unreduced. *)
  max_inflight_frames : int;
      (** Send window: at most this many frames written to the socket
          but not yet acknowledged. Application-level flow control — the
          socket buffer is effectively unbounded, so without a window
          the agent would write its whole spool eagerly and overflow
          could never find an evictable (never-transmitted) frame. *)
}
(** Fixed, not configurable: a frame cut costs 100 us plus 1 us per
    record of agent CPU, sends go out in 8 KiB syscalls, and a dropped
    connection is redialled after 100 ms. *)

val default_config : config
(** batch 256, spool 65536 records, [Drop_oldest], no program filter,
    window 8 frames. *)

type t

val create :
  ?telemetry:Telemetry.Registry.t ->
  ?config:config ->
  wire:Wire.t ->
  node:Simnet.Node.t ->
  collector:Simnet.Address.endpoint ->
  unit ->
  t
(** An agent for [node]'s host. Does not connect until {!start}.
    @raise Invalid_argument on a non-positive [batch_records] or
    [max_spool_records]. *)

val host : t -> string

val attach : t -> Trace.Probe.t -> unit
(** Subscribe to the probe and exempt the agent's own process. *)

val start : t -> unit
(** Dial the collector (which must already be listening). *)

val observe : t -> Trace.Activity.t -> unit
(** Feed one record; records of other hosts are ignored (the probe
    listener broadcasts every host's activities). Never raises. *)

val flush : t -> unit
(** Cut the open batch now (no-op when empty or down). *)

val crash : t -> unit
(** Fault injection: kill the agent process. Idempotent while down. *)

val restart : t -> unit
(** Restart after a {!crash}: new process, reconnect, resend unacked
    spool. No-op while alive. *)

type stats = {
  observed : int;  (** Own-host records accepted from the probe. *)
  reduced : int;
      (** Records removed before framing — by the program filter and
          by the partial-correlation pass (prefilter + coalescing). *)
  partial_coalesced : int;  (** Rows merged into a local run head. *)
  dropped : (string * int) list;
      (** Records lost, by reason: [agent_down], [buffer_full],
          [evicted], [crash]. Sorted by reason. *)
  frames_shipped : int;  (** Frame transmissions, including retransmits. *)
  retransmits : int;
  bytes_shipped : int;
  acked_records : int;  (** Records in frames covered by a cumulative ack. *)
  spooled_records : int;  (** Records framed but not yet acknowledged. *)
  queued_records : int;  (** Records in the open batch / encode queue. *)
  connections : int;
}

val stats : t -> stats
(** Always satisfies
    [observed = reduced + total dropped + acked_records +
     spooled_records + queued_records] — the reconciliation identity the
    acceptance tests check. *)

val dropped_total : stats -> int
