(** The central collection endpoint.

    One collector node accepts agent connections, incrementally decodes
    PTC1 frames out of the byte stream (tolerating arbitrary TCP
    segmentation), reorders each host's frames by sequence number,
    deduplicates retransmits, advances per-host watermarks and hands each
    delivered frame's rows — in per-host order — to a sink, typically
    {!Core.Online.observe_arena}. It acknowledges cumulatively, so agents
    can trim their spools and resume from the last ack after a crash.

    A frame's [oldest] header is the agent's resend horizon: sequence
    numbers below it that were never received are permanent losses
    (agent-side eviction), so the collector skips them instead of
    stalling the host's in-order delivery. *)

type t

val create :
  ?telemetry:Telemetry.Registry.t ->
  ?cpu_per_frame:Simnet.Sim_time.span ->
  ?on_arena:(Trace.Arena.t -> unit) ->
  wire:Wire.t ->
  node:Simnet.Node.t ->
  port:int ->
  unit ->
  t
(** Listen on [node]:[port]. Each delivered frame costs
    [cpu_per_frame] (default 50 us) plus 500 ns per record of collector
    CPU before its rows reach the sink. [on_arena] receives each
    delivered frame's payload arena, with no record built (feed it to
    {!Core.Online.observe_arena} or {!Store.Writer.ingest_native}).
    Reads go out in 8 KiB recv syscalls. *)

val endpoint : t -> Simnet.Address.endpoint

type host_stats = {
  delivered_frames : int;
  delivered_records : int;
  duplicate_frames : int;  (** Retransmits discarded by dedup. *)
  skipped_frames : int;  (** Sequence numbers skipped as permanent agent-side losses. *)
  watermark : Simnet.Sim_time.t;  (** Newest host-local watermark delivered. *)
  next_seq : int;  (** Next frame expected from this host. *)
}

val stats : t -> (string * host_stats) list
(** Per-host delivery state, sorted by hostname. *)

val delivered_records : t -> int
(** Total records handed to the sink, all hosts. *)
