(** The PTC1 collection wire format.

    Agents ship activity batches to the collector as sequence-numbered
    frames over a TCP byte stream. Each frame is self-delimiting:

    {v
    magic     "PTC1"  (4 bytes)
    seq       uvarint  frame sequence number, per host, starting at 0
    oldest    uvarint  lowest seq the agent can still (re)transmit; every
                       missing seq below it was dropped at the agent and
                       will never arrive, so the collector may skip it
    host      uvarint length + bytes
    watermark varint   host-local clock (ns) of the newest record observed
                       when the batch was cut; zigzag-signed, since a
                       clock running behind starts below zero
    plen      uvarint  payload length in bytes
    payload   PTB1 bytes ({!Trace.Binary_format}) holding exactly one log
              for [host] (possibly empty)
    v}

    The next frame's magic follows the payload directly.

    [oldest] is stamped at {e transmission} time, not encode time, so a
    retransmitted frame always carries the agent's current drop horizon.
    The reverse direction carries cumulative acknowledgements:

    {v
    magic "PTA1" (4 bytes)
    seq   uvarint  every frame with seq <= this has been delivered
    v}

    Both directions encode through {!Trace.Binary_format}'s writer and
    decode incrementally on its reader: the decoders accept bytes in
    arbitrary chunks (TCP coalescing splits frames anywhere, including
    mid-varint) and queue them in a {!Trace.Binary_format.writer}. Each
    [next] parses the queued bytes in place; the reader running off the
    end ([End_of_input]) means "need more bytes" and allocates nothing,
    while [Corrupt] is corruption. *)

type t = {
  seq : int;
  oldest : int;
  host : string;
  watermark : Simnet.Sim_time.t;  (** Host-local clock of the batch cut. *)
  arena : Trace.Arena.t;
      (** Decoded payload rows in file order. *)
}

val records : t -> int
(** Row count of the payload. *)

val magic : string
(** ["PTC1"]. *)

val encode_payload_arena : Trace.Arena.t -> string
(** The PTB1 payload bytes for one batch (what an agent spools) —
    {!Trace.Binary_format.encode_native} over the single host arena. *)

val encode :
  seq:int -> oldest:int -> host:string -> watermark:Simnet.Sim_time.t -> payload:string ->
  string
(** Wrap a spooled payload into one wire frame. [oldest] is the agent's
    current resend horizon.
    @raise Invalid_argument on negative [seq]/[oldest]. *)

val encode_ack : int -> string
(** One cumulative-ack mini-frame. *)

(** Incremental frame decoder. Feed it raw stream bytes as they arrive;
    [next] yields completed frames. Errors are sticky: a corrupt stream
    cannot be resynchronised and every later [next] returns the same
    error. *)
module Decoder : sig
  type frame := t
  type t

  val create : unit -> t

  val feed : t -> string -> unit

  val next : t -> (frame option, string) result
  (** [Ok None] means a frame is incomplete — feed more bytes. Errors
      name the absolute stream offset of the corruption. *)

  val drain : t -> (frame list, string) result
  (** Every complete frame currently buffered (frames decoded before the
      corruption point are lost when an error is returned). *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by a completed frame. *)
end

(** Incremental decoder for the acknowledgement direction. *)
module Ack_decoder : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit
  val next : t -> (int option, string) result
  val drain : t -> (int list, string) result
end
