(** The ranker: choosing candidate activities for CAG composition (§4.1).

    Each node's log is a stream of {!Trace.Arena} rows in local timestamp
    order. Rows whose timestamps fall inside a sliding time window are
    fetched into per-node queues, which hold row indices. The ranker only
    ever compares the {e head} rows of the queues and picks the next
    candidate by the paper's two rules:

    - {b Rule 1}: a head RECEIVE whose matching SEND is already in the
      engine's [mmap] is the candidate — its message parent has been
      delivered, so it can be correlated immediately.
    - {b Rule 2}: otherwise the head with the lowest type priority
      (BEGIN < SEND < END < RECEIVE) is the candidate, which guarantees a
      SEND always precedes its matched RECEIVE.

    One pass over the heads finds both rule candidates and, for when
    every head is a RECEIVE, the noise suspect. It compares kind codes,
    timestamps and {!Trace.Intern} ids and allocates nothing. Buffered
    SENDs are counted per interned flow id, and Rule 1 asks the engine
    about the same id: [has_mmap_send] is {!Cag_engine.has_mmap_send}.

    Two disturbances are handled (§4.3): {e concurrency disturbance}, where
    every head is a RECEIVE blocking the others' matched SENDs deeper in
    the queues — resolved by promoting a buffered matching SEND to its
    queue's front (the paper's head swap, generalised to any depth); and
    {e noise}, a RECEIVE with no matching SEND in the [mmap] {e or} the
    buffer — discarded, but only after fetching ahead up to
    [skew_allowance] so that clock skew between nodes can never
    misclassify live traffic as noise (DESIGN.md clarification #3).

    {b One core, thin adapters.} {!create_native}, {!feed_row} and
    {!next} are the core. A committed candidate is read back as ids
    ({!candidate_ctx}, {!candidate_flow}) and as one record
    ({!candidate}), built from a per-run id -> record cache that asks
    {!Trace.Intern} once per distinct id. {!create} (a
    {!Trace.Log.collection}, through {!Trace.Arena.of_collection}) and
    {!rank} are adapters onto the same code. *)

type t

type reject_reason =
  | Unknown_host  (** No stream exists for the record's host. *)
  | Closed  (** Fed after {!close_input}. *)
  | Duplicate  (** Identical to the previous record of its stream. *)
  | Regression  (** Timestamp behind the stream by more than the skew allowance. *)
  | Stale
      (** Late within the allowance, but behind what its stream already
          committed to the engine — too late to re-sort. *)

val reject_reason_to_string : reject_reason -> string
(** Stable lower-snake label, used as the [reason] metric label. *)

val all_reject_reasons : reject_reason list

type feed_result =
  | Accepted
  | Resorted  (** A tolerable regression, re-sorted into place. *)
  | Quarantined of reject_reason

type stats = {
  fetched : int;  (** Activities pulled into the buffer. *)
  candidates : int;  (** Activities committed as candidates. *)
  noise_discarded : int;  (** RECEIVEs dropped by the [is_noise] check. *)
  promotions : int;  (** Concurrency-disturbance head swaps. *)
  forced_fetches : int;  (** Window extensions for deferred noise checks. *)
  forced_discards : int;
      (** Discards of a RECEIVE whose matching SEND was buffered but
          unpromotable — expected to be zero; a non-zero value flags an
          interleaving outside the algorithm's assumptions. *)
  peak_buffered : int;  (** High-water mark of buffered activities. *)
  resorted : int;  (** Late records re-sorted into place. *)
  quarantined : (reject_reason * int) list;  (** Per-reason reject counts. *)
  stragglers_evicted : int;  (** Streams marked lagging past the timeout. *)
  straggler_resyncs : int;  (** Lagging streams reintegrated on catch-up. *)
  backpressure_pops : int;
      (** Candidates force-resolved (or noise force-discarded) because
          held records exceeded [max_buffered]. *)
}

type ablation = { disable_rule1 : bool; disable_promotion : bool }
(** Switch off individual mechanisms to measure what they buy (the
    ablation benches of DESIGN.md). Without Rule 1, matched receives wait
    behind the priority order; without promotion, concurrency disturbances
    must resolve through forced discards — both degrade accuracy, which is
    the point. *)

val no_ablation : ablation

val create_native :
  window:Simnet.Sim_time.span ->
  ?skew_allowance:Simnet.Sim_time.span ->
  ?ablation:ablation ->
  has_mmap_send:(int -> bool) ->
  Trace.Arena.t list ->
  t
(** One stream per arena, each in the order
    {!Trace.Arena.sort_by_time} leaves it; the rows are ranked in place
    and never modified. [window] is the sliding-window size (any positive
    span; accuracy is independent of it, cost is not). [skew_allowance]
    bounds how far ahead of a suspect RECEIVE the ranker will look before
    declaring it noise; it must exceed the largest cross-node clock skew
    (default 1 s, twice the paper's largest evaluated skew).
    [has_mmap_send] answers Rule 1 for an interned flow id. *)

val create :
  window:Simnet.Sim_time.span ->
  ?skew_allowance:Simnet.Sim_time.span ->
  ?ablation:ablation ->
  has_mmap_send:(int -> bool) ->
  Trace.Log.collection ->
  t
(** {!create_native} over [Trace.Arena.of_collection collection]. *)

val next : t -> bool
(** Commit the next candidate: [true] when one was popped, [false] when
    all input is consumed or, with open input, none is decidable yet. *)

val candidate_ctx : t -> int
val candidate_flow : t -> int

val candidate_host : t -> int
(** The stream (host index, in the order the arenas or [hosts] were
    given) of the last committed candidate. *)

val candidate_origin : t -> int
(** Its raw row, {!Trace.Arena.origin} of the stream row: the input row
    the transform derived it from, an online feed's [origin], or the
    row itself on a raw arena; [-1] when fed with none. *)

val candidate : t -> Trace.Activity.t
(** The last candidate {!next} committed: its {!Trace.Intern} context and
    flow ids, and the record with canonical context and flow. Valid until
    the next call to {!next}. *)

val rank : t -> Trace.Activity.t option
(** {!next} then {!candidate}: the next candidate, or [None] when all
    input is consumed. (For rankers with open input, [None] can also mean
    "need more input".) *)

(** {1 Live operation}

    A ranker can also be driven online, as traces stream in from the
    cluster: create it with the node list, {!feed_row} rows as the
    collector delivers them, and pull candidates with {!next}.
    Candidates are withheld until enough input has arrived that no
    later-fed activity could precede them (each stream's feed watermark
    must pass the candidate's timestamp plus the skew allowance), so
    online results match the offline run on the same trace exactly.

    {2 Degraded feeds}

    Live input is imperfect, and the ranker degrades gracefully rather
    than stalling or raising:

    - {b Straggler eviction} ([straggler_timeout]): an open stream that
      falls further than the timeout behind the global feed watermark is
      evicted from the wait set, so a silent host cannot stall everyone
      else forever. If it later catches back up to within the timeout it
      is reintegrated (a resync), and its backlog is fetched normally.
    - {b Input quarantine}: {!feed_row} never raises. Out-of-contract
      records — unknown host, post-close, duplicates, large timestamp
      regressions, too-late records — are counted per {!reject_reason}
      and kept in a bounded inspection log; regressions within the skew
      allowance are re-sorted into place instead. (A port outside
      0..65535 never gets this far: the text, PTB1 and PTC1 decoders
      reject it, and an arena cannot hold one.)
    - {b Backpressure} ([max_buffered]): when held records (buffered plus
      unfetched backlog) exceed the bound, {!next} force-resolves the
      oldest window instead of waiting for reassuring input, so memory
      stays bounded even when safety cannot be established. *)

val create_online :
  window:Simnet.Sim_time.span ->
  ?skew_allowance:Simnet.Sim_time.span ->
  ?ablation:ablation ->
  ?straggler_timeout:Simnet.Sim_time.span ->
  ?max_buffered:int ->
  has_mmap_send:(int -> bool) ->
  hosts:string list ->
  unit ->
  t

val feed_row :
  t -> kind:int -> ts:int -> ctx:int -> flow:int -> size:int -> origin:int -> feed_result
(** Append one row, in {!Trace.Arena.append}'s encoding, to the stream of
    its context's host. [origin] is the row's raw row, reported back by
    {!candidate_origin} ([-1]: none); online streams keep it through
    re-sorts and reclaims. Never raises: out-of-contract records are
    {!Quarantined} (counted per reason, logged in a bounded ring), and
    regressions within the skew allowance are {!Resorted} into place. A
    record is built only for a quarantined row. *)

val close_input : t -> unit
(** No more activities will be fed; pending candidates become decidable. *)

val buffered : t -> int
(** Activities currently held in the ranker's queues. *)

val held : t -> int
(** Buffered activities plus the unfetched backlog of fed rows —
    everything the ranker currently holds; the quantity bounded by
    [max_buffered] and the ranker's share of the peak-memory proxy. A
    native ranker's rows belong to its caller, so there it is
    {!buffered}. *)

val watermark : t -> Simnet.Sim_time.t
(** The latest timestamp accepted by {!feed_row} on any stream (zero
    before the first, and always for a native ranker). *)

val resolved : t -> int
(** Candidates committed plus RECEIVEs discarded as noise: the records
    that have left the ranker for good. O(1), for bookkeeping per fed
    record; {!stats} builds a record. *)

val stragglers_active : t -> int
(** Open streams currently evicted as stragglers. *)

val quarantine_log : t -> (reject_reason * Trace.Activity.t) list
(** The most recent quarantined records (bounded ring; counts in
    {!stats} are exact even when the ring has wrapped). *)

val quarantined_total : t -> int

val stats : t -> stats
