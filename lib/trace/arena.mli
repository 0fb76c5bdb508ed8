(** Flat, arena-backed activity storage — the pipeline's native
    representation.

    One arena holds the records of one origin host as a struct-of-arrays:
    a kind byte plus four unboxed int columns (timestamp, {!Intern}
    context id, {!Intern} flow id, message size). The decoder fills
    arenas without allocating per record, the store writer batches and
    merges them with integer blits, and the ranker ranks rows in place.
    {!Activity.t} views are built from the canonical interned
    context/flow, so each costs two blocks, not five, and downstream
    equality checks short-circuit on [==].

    Arenas double in capacity as they fill ([pt_arena_grows_total],
    [pt_arena_peak_rows]); rows are in whatever order they were appended
    until {!sort_by_time}. {!merge_runs} is the one k-way time merge of
    host arenas: the store writer's segment roller, the shard planner
    and the online replay all consume its order.

    {b Origins.} A derived arena (the transform's output, a shard epoch,
    an online ranker stream) can carry a sixth column: the raw row each
    row came from ({!origin}). Every row operation keeps it with its row:
    {!insert}, {!drop_front}, {!sort_by_time}, {!append_row},
    {!append_range} and {!copy}. Raw arenas (decoded, stored) have no such
    column and pay nothing: each of their rows is its own origin. *)

type t

(** {1 Construction} *)

val create : ?capacity:int -> ?origins:bool -> host:string -> unit -> t
val create_sid : ?capacity:int -> ?origins:bool -> int -> t
(** [create_sid sid] with [sid] an {!Intern.string_id} of the hostname.
    [origins] (default [false]) allocates the origin column; rows
    appended with {!append} or {!insert} get origin [-1] until
    {!set_origin}. *)

val append : t -> kind:int -> ts:int -> ctx:int -> flow:int -> size:int -> unit
(** Raw row append: [kind] is an {!Activity.kind_to_code} code, [ts] in
    ns, [ctx]/[flow] interned ids. The zero-allocation hot path. *)

val append_activity : t -> Activity.t -> unit
(** Interns the record's attributes and appends. *)

val append_row : t -> t -> int -> unit
(** [append_row dst src i] copies row [i] of [src] — five integer stores,
    valid across arenas because ids are process-wide. When [dst] has an
    origin column, the copy's origin is [origin src i]. *)

val append_range : t -> t -> lo:int -> hi:int -> unit
(** [append_range dst src ~lo ~hi] copies rows [lo, hi) of [src] in one
    blit per column — the bulk form of {!append_row} for run-at-a-time
    merges, with the same origins.
    @raise Invalid_argument on an out-of-bounds range. *)

val insert : t -> int -> kind:int -> ts:int -> ctx:int -> flow:int -> size:int -> unit
(** [insert t i ...] shifts rows [i, length t) up by one and writes the
    new row at [i] — how the online ranker re-sorts a late record into
    place. @raise Invalid_argument unless [0 <= i <= length t]. *)

val drop_front : t -> int -> unit
(** [drop_front t n] forgets rows [0, n) and renumbers the rest from 0,
    keeping capacity — how the online ranker reclaims a consumed prefix.
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val clear : t -> unit
(** Forget all rows and keep the capacity. The agent's crash path empties
    its open batch with it; the store writer does not reuse its batch
    arenas (it starts fresh ones after every flush). *)

val copy : t -> t

(** {1 Access} *)

val host_sid : t -> int
val hostname : t -> string
val length : t -> int
val capacity : t -> int

val kind_code : t -> int -> int
val kind : t -> int -> Activity.kind
val ts : t -> int -> int
val ctx_id : t -> int -> int
val flow_id : t -> int -> int
val size : t -> int -> int

val origin : t -> int -> int
(** The raw row that row [i] came from: the origin column's entry on a
    derived arena, [i] itself on a raw one. All row accessors raise
    [Invalid_argument] out of bounds. *)

val set_origin : t -> int -> int -> unit
(** [set_origin t i o] records that row [i] came from raw row [o].
    @raise Invalid_argument out of bounds or without an origin column. *)

val get : t -> int -> Activity.t
(** Materialise row [i] with canonical (shared) context and flow
    records. *)

(** Visit each row's raw fields in order without materialising records —
    the encoder's inner loop. *)
val iter_native :
  t -> (kind:int -> ts:int -> ctx:int -> flow:int -> size:int -> unit) -> unit

(** {1 Order}

    Rows order as {!Activity.compare_by_time} orders the records
    (timestamp, context, kind priority): the time order. *)

val merge_runs : t array -> (int -> int -> int -> unit) -> unit
(** [merge_runs arenas f] is the k-way time merge of [arenas], each in
    {!sort_by_time} order: it calls [f h lo hi] for consecutive runs of
    rows [lo, hi) of [arenas.(h)] (never empty, and each arena's runs
    contiguous from row 0), and the runs concatenated are every row in
    time order, full ties going to the lower arena index.
    That is exactly the order [List.stable_sort Activity.compare_by_time]
    gives the concatenated records: the arrival order of a replayed feed.
    A run is every row of the least head below the runner-up timestamp,
    so callers copy it with one {!append_range}; the merge itself
    allocates nothing per run. *)

val iter_merged : t array -> (int -> int -> unit) -> unit
(** {!merge_runs} one row at a time: [f h i] for row [i] of
    [arenas.(h)]. *)

val sort_by_time : t -> unit
(** In-place stable sort into time order (full ties keep their row
    order). *)

val sorted : t -> t
(** [t] itself when already in {!sort_by_time} order, else a sorted
    {!copy}: log order without mutating the input. *)

val time_bounds : t -> (Simnet.Sim_time.t * Simnet.Sim_time.t) option
(** [(min, max)] timestamp over all rows; [None] when empty. *)

(** {1 Conversions} *)

val of_log : Log.t -> t

val of_collection : Log.collection -> t list
val to_collection : t list -> Log.collection
val total : t list -> int
