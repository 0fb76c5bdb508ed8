(** The streaming store writer: capture goes straight to disk.

    A writer buffers activities per host and rolls a new segment every
    [roll_records] activities, applying its reduction {!Policy} to each
    batch before encoding — so a live capture streams reduced segments to
    disk while the service is still running: [Collect.Deploy] tees every
    delivered arena through {!observe_row}, and {!ingest_native} takes
    saved host arenas. It is the one segment roller: the bundle packer's
    synthetic segments come from {!encode}, the same roll held in memory.
    A segment lists only the hosts with rows in it.

    Because reduction is per batch, a request that straddles a segment
    boundary is seen by two independent reduction passes; its unfinished
    halves are attributed to deformed paths and sampled like any other
    request (never split mid-message, since message endpoints land in the
    same batch up to the roll granularity). Batch boundaries are the one
    fidelity caveat of streaming reduction — see docs/STORE.md. *)

type t

type stats = {
  segments : int;  (** Segments written. *)
  records_in : int;  (** Activities observed. *)
  records_out : int;  (** Activities written after reduction. *)
  bytes_in : int;  (** Encoded size of raw batches. *)
  bytes_out : int;  (** Payload bytes written. *)
  requests_seen : int;
  requests_kept : int;
}

val pp_stats : Format.formatter -> stats -> unit

val default_roll_records : int
(** 65536: the activities per segment when no [roll_records] is given. *)

val create :
  ?telemetry:Telemetry.Registry.t ->
  ?policy:Policy.t ->
  ?correlate:Core.Correlator.config ->
  ?roll_records:int ->
  dir:string ->
  unit ->
  t
(** Open (creating [dir] if needed) a writer appending to the store at
    [dir]; an existing manifest is extended, so successive runs can feed
    one store. Defaults: {!Policy.none}, roll every
    {!default_roll_records} activities.
    @raise Invalid_argument if [policy] needs request attribution (any
    non-[none] policy) and [correlate] is missing.
    @raise Failure if an existing manifest cannot be parsed. *)

val observe_row : t -> host:int -> kind:int -> ts:int -> ctx:int -> flow:int -> size:int -> unit
(** Buffer one row: [host] is an {!Trace.Intern.string_id}, [kind] an
    {!Trace.Activity.kind_to_code} code, [ctx]/[flow] interned ids. One
    arena append, no allocation; rolls a segment when the batch threshold
    is reached. *)

val ingest_native : t -> Trace.Arena.t list -> unit
(** Feed whole host arenas, interleaved in global timestamp order — the
    same segment time-partitioning a live feed would produce: the runs of
    {!Trace.Arena.merge_runs}, cut at the roll boundary. Inputs are not
    mutated; an unsorted arena is sorted on a copy. *)

val flush : t -> unit
(** Force the current batch out as a segment (no-op when empty): the
    per-host batch arenas go through {!Reduce.apply} when a policy is
    set, then to {!Segment.write_native}. *)

val close : t -> stats
(** Flush and return the run's totals. The manifest is saved after every
    segment, so a crash loses at most the open batch; [close] saves it
    itself only when this writer wrote no segment, so a store that got
    none still has its manifest. *)

val stats : t -> stats

val encode : ?roll_records:int -> Trace.Arena.t list -> Manifest.t * (Segment.meta * string) list
(** The store an {!ingest_native} of the arenas into a fresh writer with
    policy {!Policy.none} would write, held in memory instead: its
    manifest and segments (each with the exact bytes {!Segment.write}
    puts on disk), oldest first. Nothing touches the disk, and
    the writer's own [pt_store_*] metrics go to a private registry, so
    they never count in-memory segments. [roll_records] defaults to
    {!default_roll_records}. *)
