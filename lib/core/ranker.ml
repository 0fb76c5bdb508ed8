module Activity = Trace.Activity
module Address = Simnet.Address
module Arena = Trace.Arena
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time

(* Rows carry {!Activity.kind_to_code} kinds, and the codes are the Rule 2
   priorities, so the head pass compares kind codes directly. *)
let () =
  assert (
    List.for_all
      (fun k -> Activity.kind_to_code k = Activity.kind_priority k)
      [ Activity.Begin; Activity.Send; Activity.End_; Activity.Receive ])

let code_send = Activity.kind_to_code Activity.Send
let code_receive = Activity.kind_to_code Activity.Receive
let kind_of_code = Array.init 4 (fun c -> Option.get (Activity.kind_of_code c))

(* All timestamps and spans below are in ns. *)
type stream = {
  host : string;
  rows : Arena.t;
      (* [0, cursor): fetched (queued, or already popped); [cursor,
         length): not yet fetched, in timestamp order. *)
  mutable cursor : int;
  mutable listed : int;
      (* Rows the stream counts as its own: the unfetched ones plus those
         fetched since the consumed prefix was last reclaimed. *)
  mutable closed : bool;
  fed : bool;
      (* Rows arrive through [feed_row] and count as backlog until
         fetched; a native stream's rows belong to the caller. *)
  mutable last_ts : int;  (* highest in-order feed timestamp *)
  mutable last_kind : int;
      (* the previous record accepted ([-1]: none yet, so the next one is
         in order whatever its timestamp) *)
  mutable last_fed_ts : int;
  mutable last_ctx : int;
  mutable last_flow : int;
  mutable last_size : int;
  mutable last_popped : int;
      (* Highest timestamp committed (popped) from this stream; late
         arrivals below it can no longer be ordered and are quarantined. *)
  mutable lagging : bool;
      (* Evicted as a straggler: [safe_to_pop]/[noise_decidable] stop
         waiting on this stream until its feed catches the watermark. *)
}

type reject_reason = Unknown_host | Closed | Duplicate | Regression | Stale

let reject_reason_to_string = function
  | Unknown_host -> "unknown_host"
  | Closed -> "closed"
  | Duplicate -> "duplicate"
  | Regression -> "regression"
  | Stale -> "stale"

let reason_index = function
  | Unknown_host -> 0
  | Closed -> 1
  | Duplicate -> 2
  | Regression -> 3
  | Stale -> 4

let all_reject_reasons = [ Unknown_host; Closed; Duplicate; Regression; Stale ]

type feed_result = Accepted | Resorted | Quarantined of reject_reason

type stats = {
  fetched : int;
  candidates : int;
  noise_discarded : int;
  promotions : int;
  forced_fetches : int;
  forced_discards : int;
  peak_buffered : int;
  resorted : int;
  quarantined : (reject_reason * int) list;
  stragglers_evicted : int;
  straggler_resyncs : int;
  backpressure_pops : int;
}

type ablation = { disable_rule1 : bool; disable_promotion : bool }

let no_ablation = { disable_rule1 = false; disable_promotion = false }

(* Most recent quarantined records kept for inspection; counts are exact,
   the log is a ring. *)
let quarantine_cap = 256

(* The buffered SENDs of one flow and the queue holding them: every SEND
   of a flow originates on one node, so lookups and promotion searches
   target exactly that queue. A flow's entry goes when its last SEND
   leaves the buffer, so the table holds only what is buffered. *)
type sends = { mutable count : int; mutable home : int }

type t = {
  window : int;
  skew_allowance : int;
  ablation : ablation;
  straggler_timeout : int option;
  max_buffered : int option;
  streams : stream array;  (* one per node log *)
  host_index : (string, int) Hashtbl.t;  (* host -> index in [streams] *)
  queues : int Deque.t array;  (* row indices into [streams.(i).rows] *)
  (* Mirrors of each queue's head row and each stream's first unfetched
     timestamp, so the per-candidate passes read plain int arrays. *)
  head_kind : int array;  (* [-1] when the queue is empty *)
  head_ts : int array;
  head_flow : int array;
  front_ts : int array;  (* [max_int] when nothing is left to fetch *)
  buffered_sends : sends Intern.Table.t;  (* keyed by flow id *)
  has_mmap_send : int -> bool;
  (* Per-run id -> record caches, filled on first sight: materialising a
     row costs one {!Intern} lookup per distinct id, not one per row. *)
  mutable contexts : Activity.context array;
  mutable flows : Address.flow array;
  mutable context_streams : int array;  (* context id -> stream index *)
  quarantine_log : (reject_reason * Activity.t) Deque.t;
  quarantine_counts : int array;  (* indexed by [reason_index] *)
  mutable candidate_stream : int;  (* where the last committed row lives *)
  mutable candidate_row : int;
  mutable watermark : int;  (* max feed timestamp across streams *)
  mutable buffered : int;
  mutable backlog : int;  (* fed but not yet fetched into a queue *)
  mutable fetched : int;
  mutable candidates : int;
  mutable noise_discarded : int;
  mutable promotions : int;
  mutable forced_fetches : int;
  mutable forced_discards : int;
  mutable peak_buffered : int;
  mutable resorted : int;
  mutable stragglers_evicted : int;
  mutable straggler_resyncs : int;
  mutable backpressure_pops : int;
  mutable force_step : int;
      (* Current deferred-noise fetch increment; doubles while consecutive
         force-fetches fail to surface a candidate, resets on success. *)
}

(* ---- id -> record caches ---- *)

let no_context = { Activity.host = ""; program = ""; pid = -1; tid = -1 }

let no_flow =
  let e = Address.endpoint (Address.ip_of_int 0) 0 in
  Address.flow ~src:e ~dst:e

let unresolved = -2
let unknown_host = -1

let widen a id fill =
  let b = Array.make (max (id + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let context_of t id =
  if id >= Array.length t.contexts then t.contexts <- widen t.contexts id no_context;
  let c = t.contexts.(id) in
  if c != no_context then c
  else begin
    let c = Intern.context_of_id id in
    t.contexts.(id) <- c;
    c
  end

let flow_of t id =
  if id >= Array.length t.flows then t.flows <- widen t.flows id no_flow;
  let f = t.flows.(id) in
  if f != no_flow then f
  else begin
    let f = Intern.flow_of_id id in
    t.flows.(id) <- f;
    f
  end

(* A record belongs to the stream of its context's host. *)
let stream_of_context t ctx =
  if ctx >= Array.length t.context_streams then
    t.context_streams <- widen t.context_streams ctx unresolved;
  let i = t.context_streams.(ctx) in
  if i <> unresolved then i
  else begin
    let i =
      match Hashtbl.find_opt t.host_index (context_of t ctx).Activity.host with
      | Some i -> i
      | None -> unknown_host
    in
    t.context_streams.(ctx) <- i;
    i
  end

let activity_of_row t ~kind ~ts ~ctx ~flow ~size =
  {
    Activity.kind = kind_of_code.(kind);
    timestamp = Sim_time.of_ns ts;
    context = context_of t ctx;
    message = { Activity.flow = flow_of t flow; size };
  }

(* ---- construction ---- *)

let make ~window ~skew_allowance ~ablation ~straggler_timeout ~max_buffered ~has_mmap_send
    streams =
  let window = Sim_time.span_ns window and skew_allowance = Sim_time.span_ns skew_allowance in
  if window <= 0 then invalid_arg "Ranker.create: window must be positive";
  let host_index = Hashtbl.create (Array.length streams) in
  Array.iteri (fun i s -> Hashtbl.replace host_index s.host i) streams;
  {
    window;
    skew_allowance;
    ablation;
    straggler_timeout = Option.map Sim_time.span_ns straggler_timeout;
    max_buffered;
    streams;
    host_index;
    queues = Array.map (fun (_ : stream) -> Deque.create ()) streams;
    head_kind = Array.make (Array.length streams) (-1);
    head_ts = Array.make (Array.length streams) 0;
    head_flow = Array.make (Array.length streams) 0;
    front_ts = Array.make (Array.length streams) max_int;
    buffered_sends = Intern.Table.create 256;
    has_mmap_send;
    contexts = [||];
    flows = [||];
    context_streams = [||];
    quarantine_log = Deque.create ();
    quarantine_counts = Array.make (List.length all_reject_reasons) 0;
    candidate_stream = -1;
    candidate_row = -1;
    watermark = 0;
    buffered = 0;
    backlog = 0;
    fetched = 0;
    candidates = 0;
    noise_discarded = 0;
    promotions = 0;
    forced_fetches = 0;
    forced_discards = 0;
    peak_buffered = 0;
    resorted = 0;
    stragglers_evicted = 0;
    straggler_resyncs = 0;
    backpressure_pops = 0;
    force_step = window;
  }

let sync_head t i =
  let q = t.queues.(i) in
  if Deque.is_empty q then t.head_kind.(i) <- -1
  else begin
    let rows = t.streams.(i).rows and r = Deque.get q 0 in
    t.head_kind.(i) <- Arena.kind_code rows r;
    t.head_ts.(i) <- Arena.ts rows r;
    t.head_flow.(i) <- Arena.flow_id rows r
  end

let sync_front t i =
  let s = t.streams.(i) in
  t.front_ts.(i) <- (if s.cursor < Arena.length s.rows then Arena.ts s.rows s.cursor else max_int)

let stream ~closed rows =
  let n = Arena.length rows in
  {
    host = Arena.hostname rows;
    rows;
    cursor = 0;
    listed = n;
    closed;
    fed = not closed;
    last_ts = (if n = 0 then 0 else Arena.ts rows (n - 1));
    last_kind = -1;
    last_fed_ts = 0;
    last_ctx = 0;
    last_flow = 0;
    last_size = 0;
    last_popped = 0;
    lagging = false;
  }

let create_native ~window ?(skew_allowance = Sim_time.sec 1) ?(ablation = no_ablation)
    ~has_mmap_send arenas =
  let t =
    make ~window ~skew_allowance ~ablation ~straggler_timeout:None ~max_buffered:None
      ~has_mmap_send
      (Array.of_list (List.map (stream ~closed:true) arenas))
  in
  Array.iteri (fun i _ -> sync_front t i) t.streams;
  t

let create ~window ?skew_allowance ?ablation ~has_mmap_send collection =
  create_native ~window ?skew_allowance ?ablation ~has_mmap_send
    (Arena.of_collection collection)

let create_online ~window ?(skew_allowance = Sim_time.sec 1) ?(ablation = no_ablation)
    ?straggler_timeout ?max_buffered ~has_mmap_send ~hosts () =
  make ~window ~skew_allowance ~ablation ~straggler_timeout ~max_buffered ~has_mmap_send
    (Array.of_list
       (List.map (fun host -> stream ~closed:false (Arena.create ~origins:true ~host ())) hosts))

(* ---- buffer bookkeeping ---- *)

let quarantine t reason ~kind ~ts ~ctx ~flow ~size =
  let r = reason_index reason in
  t.quarantine_counts.(r) <- t.quarantine_counts.(r) + 1;
  if Deque.length t.quarantine_log >= quarantine_cap then ignore (Deque.pop_front t.quarantine_log);
  Deque.push_back t.quarantine_log (reason, activity_of_row t ~kind ~ts ~ctx ~flow ~size);
  Quarantined reason

let close_input t = Array.iter (fun s -> s.closed <- true) t.streams

let buffered_send_count t flow =
  match Intern.Table.find t.buffered_sends flow with s -> s.count | exception Not_found -> 0

let count_send t i r delta =
  let rows = t.streams.(i).rows in
  if Arena.kind_code rows r = code_send then begin
    let flow = Arena.flow_id rows r in
    match Intern.Table.find t.buffered_sends flow with
    | s ->
        s.count <- s.count + delta;
        s.home <- i;
        if s.count <= 0 then Intern.Table.remove t.buffered_sends flow
    | exception Not_found ->
        if delta > 0 then Intern.Table.add t.buffered_sends flow { count = delta; home = i }
  end

(* Row [r] of stream [i] just joined its queue. *)
let note_buffered t i r =
  count_send t i r 1;
  t.buffered <- t.buffered + 1;
  t.fetched <- t.fetched + 1;
  if t.buffered > t.peak_buffered then t.peak_buffered <- t.buffered

(* ---- feeding ---- *)

(* Queue position of the first fetched row of stream [i] later than
   [ts], or [-1]. *)
let first_later t i ts =
  let q = t.queues.(i) and rows = t.streams.(i).rows in
  let n = Deque.length q in
  let j = ref 0 in
  while !j < n && ts >= Arena.ts rows (Deque.get q !j) do
    incr j
  done;
  if !j < n then !j else -1

let remember_fed s ~kind ~ts ~ctx ~flow ~size =
  s.last_kind <- kind;
  s.last_fed_ts <- ts;
  s.last_ctx <- ctx;
  s.last_flow <- flow;
  s.last_size <- size

let feed_row t ~kind ~ts ~ctx ~flow ~size ~origin =
  let i = stream_of_context t ctx in
  if i = unknown_host then quarantine t Unknown_host ~kind ~ts ~ctx ~flow ~size
  else begin
    let s = t.streams.(i) in
    if s.closed then quarantine t Closed ~kind ~ts ~ctx ~flow ~size
    else if
      kind = s.last_kind && ts = s.last_fed_ts && ctx = s.last_ctx && flow = s.last_flow
      && size = s.last_size
    then quarantine t Duplicate ~kind ~ts ~ctx ~flow ~size
    else if s.last_kind >= 0 && ts < s.last_ts then begin
      (* A timestamp regression. Within the skew allowance the record is
         merely late — re-sort it into place; beyond it, or behind what
         this stream already committed, it is unusable. *)
      if s.last_ts - ts > t.skew_allowance then quarantine t Regression ~kind ~ts ~ctx ~flow ~size
      else if ts < s.last_popped then quarantine t Stale ~kind ~ts ~ctx ~flow ~size
      else begin
        let pos = first_later t i ts in
        if pos >= 0 then begin
          (* Behind a fetched row: it joins the fetched region, shifting
             the unfetched rows up, and its queue. *)
          Arena.insert s.rows s.cursor ~kind ~ts ~ctx ~flow ~size;
          Arena.set_origin s.rows s.cursor origin;
          Deque.insert t.queues.(i) pos s.cursor;
          note_buffered t i s.cursor;
          s.cursor <- s.cursor + 1;
          sync_head t i
        end
        else begin
          (* Behind no fetched row: keep the unfetched region sorted.
             Regressions are small, so scan from the tail. *)
          let pos = ref (Arena.length s.rows) in
          while !pos > s.cursor && ts < Arena.ts s.rows (!pos - 1) do
            decr pos
          done;
          Arena.insert s.rows !pos ~kind ~ts ~ctx ~flow ~size;
          Arena.set_origin s.rows !pos origin;
          s.listed <- s.listed + 1;
          t.backlog <- t.backlog + 1
        end;
        sync_front t i;
        remember_fed s ~kind ~ts ~ctx ~flow ~size;
        t.resorted <- t.resorted + 1;
        Resorted
      end
    end
    else begin
      Arena.append s.rows ~kind ~ts ~ctx ~flow ~size;
      Arena.set_origin s.rows (Arena.length s.rows - 1) origin;
      s.listed <- s.listed + 1;
      t.backlog <- t.backlog + 1;
      sync_front t i;
      s.last_ts <- ts;
      remember_fed s ~kind ~ts ~ctx ~flow ~size;
      if t.watermark < ts then t.watermark <- ts;
      (if s.lagging then
         let caught_up =
           match t.straggler_timeout with Some limit -> t.watermark - ts <= limit | None -> true
         in
         if caught_up then begin
           (* Reintegrate: the stream rejoins the wait set and the next
              [refill] performs the resync fetch of its backlog. *)
           s.lagging <- false;
           t.straggler_resyncs <- t.straggler_resyncs + 1
         end);
      Accepted
    end
  end

(* ---- the sliding window ---- *)

(* Reclaim the consumed prefix so a long-lived online stream holds only
   its backlog and queued rows, not everything ever fed. Offline streams
   never grow, and their rows belong to the caller. *)
let reclaim t i =
  let s = t.streams.(i) in
  let unfetched = Arena.length s.rows - s.cursor in
  let consumed = s.listed - unfetched in
  if consumed > 64 && 2 * consumed >= s.listed then begin
    s.listed <- unfetched;
    if not s.closed then begin
      let q = t.queues.(i) in
      let lo = ref s.cursor in
      for j = 0 to Deque.length q - 1 do
        lo := Int.min !lo (Deque.get q j)
      done;
      if !lo > 0 then begin
        Arena.drop_front s.rows !lo;
        s.cursor <- s.cursor - !lo;
        for _ = 1 to Deque.length q do
          Deque.push_back q (Deque.pop_front q - !lo)
        done
      end
    end
  end

(* Pull every unfetched row with timestamp <= deadline into its queue.
   Reclaiming can only become due when a stream fetches. *)
let fetch_until t deadline =
  for i = 0 to Array.length t.streams - 1 do
    if t.front_ts.(i) <= deadline then begin
      let s = t.streams.(i) in
      let n = Arena.length s.rows and first = s.cursor in
      while s.cursor < n && Arena.ts s.rows s.cursor <= deadline do
        Deque.push_back t.queues.(i) s.cursor;
        note_buffered t i s.cursor;
        s.cursor <- s.cursor + 1
      done;
      if s.fed then t.backlog <- t.backlog - (s.cursor - first);
      sync_front t i;
      sync_head t i;
      reclaim t i
    end
  done

let pop t i =
  let r = Deque.pop_front t.queues.(i) in
  count_send t i r (-1);
  t.buffered <- t.buffered - 1;
  let s = t.streams.(i) in
  let ts = Arena.ts s.rows r in
  if s.last_popped < ts then s.last_popped <- ts;
  sync_head t i;
  r

(* The sliding window's left edge is the minimum timestamp among queue
   heads and unfetched stream fronts; fetch everything up to [window]
   past it. *)
let refill t =
  let m = ref max_int in
  for i = 0 to Array.length t.streams - 1 do
    if t.head_kind.(i) >= 0 then m := Int.min !m t.head_ts.(i);
    m := Int.min !m t.front_ts.(i)
  done;
  if !m < max_int then fetch_until t (!m + t.window)

(* Queue position of the first buffered SEND of [flow] in queue [qi], or
   [-1]. *)
let find_send t qi flow =
  let q = t.queues.(qi) and rows = t.streams.(qi).rows in
  let n = Deque.length q in
  let j = ref 0 in
  while
    !j < n
    &&
    let r = Deque.get q !j in
    not (Arena.kind_code rows r = code_send && Arena.flow_id rows r = flow)
  do
    incr j
  done;
  if !j < n then !j else -1

(* Whether no earlier row of queue [qi] shares the context of the row at
   position [j]. *)
let promotable t qi j =
  let q = t.queues.(qi) and rows = t.streams.(qi).rows in
  let ctx = Arena.ctx_id rows (Deque.get q j) in
  let k = ref 0 in
  while !k < j && Arena.ctx_id rows (Deque.get q !k) <> ctx do
    incr k
  done;
  !k >= j

(* Concurrency disturbance: every head is a RECEIVE, but some head's
   matching SEND sits deeper in a queue. Promote the buried SEND to its
   queue's front so Rule 2 can emit it next round — but never across an
   earlier activity of the SEND's own execution entity, which would break
   adjacent-context order (the paper's swap only ever jumps another
   CPU's activities). *)
let try_promote t =
  let promoted = ref false and i = ref 0 in
  while (not !promoted) && !i < Array.length t.queues do
    (if t.head_kind.(!i) >= 0 then
       let flow = t.head_flow.(!i) in
       match Intern.Table.find t.buffered_sends flow with
       | { count; home } when count > 0 ->
           let j = find_send t home flow in
           if j > 0 && promotable t home j then begin
             Deque.promote t.queues.(home) j;
             sync_head t home;
             t.promotions <- t.promotions + 1;
             promoted := true
           end
       | _ -> ()
       | exception Not_found -> ());
    incr i
  done;
  !promoted

(* Deferred noise check: before declaring the earliest suspect RECEIVE
   noise, make sure its matching SEND is not merely outside the fetched
   region — pull input up to [skew_allowance] past the suspect first. *)
let try_force_fetch t earliest =
  let target = earliest + t.skew_allowance in
  let next = Array.fold_left Int.min max_int t.front_ts in
  if next <= target then begin
    (* Fetch an escalating slice: window-sized at first (cheap when the
       missing SEND is just past the window edge), doubling while the
       search keeps failing so a noise-heavy trace costs O(log allowance)
       extensions per suspect rather than O(allowance / window). *)
    fetch_until t (Int.min target (next + t.force_step));
    t.force_step <- Int.min (2 * t.force_step) t.skew_allowance;
    t.forced_fetches <- t.forced_fetches + 1;
    true
  end
  else false

(* An open stream that would block the pipeline but has fallen further
   than [straggler_timeout] behind the global feed watermark is evicted
   from the wait set — it is presumed silent (crashed probe, partitioned
   host), and a silent host must not stall everyone else forever. Returns
   whether the stream may be skipped. *)
let straggler_skippable t s =
  s.lagging
  ||
  match t.straggler_timeout with
  | Some limit when t.watermark - s.last_ts > limit ->
      s.lagging <- true;
      t.stragglers_evicted <- t.stragglers_evicted + 1;
      true
  | Some _ | None -> false

(* Popping a candidate stamped [ts] commits to its position in the causal
   order; with live input this is only safe once every still-open stream
   that has nothing buffered has reported past [ts + skew_allowance] - no
   future activity can then belong before it. Closed streams and streams
   with buffered or fetched-but-unranked data behave exactly as offline. *)
let safe_to_pop t ts =
  let horizon = ts + t.skew_allowance in
  let ok = ref true in
  for i = 0 to Array.length t.streams - 1 do
    let s = t.streams.(i) in
    if
      (not s.closed)
      && t.head_kind.(i) < 0
      && t.front_ts.(i) = max_int
      && s.last_ts < horizon
      && not (straggler_skippable t s)
    then ok := false
  done;
  !ok

(* Declaring a suspect stamped [ts] noise requires knowing nothing
   relevant is still on the wire: every open stream must have reported
   past the allowance. *)
let noise_decidable t ts =
  let target = ts + t.skew_allowance in
  let ok = ref true in
  Array.iter
    (fun s ->
      if (not s.closed) && s.last_ts < target && not (straggler_skippable t s) then ok := false)
    t.streams;
  !ok

let held t = t.buffered + t.backlog

let over_budget t =
  match t.max_buffered with Some limit -> held t > limit | None -> false

let emit t i =
  t.candidates <- t.candidates + 1;
  t.force_step <- t.window;
  t.candidate_row <- pop t i;
  t.candidate_stream <- i;
  true

(* Backpressure: past [max_buffered] held records, stop waiting for
   reassuring input and force-resolve the oldest window instead. *)
let emit_or_wait t ~force i ts =
  if safe_to_pop t ts then emit t i
  else if force then begin
    t.backpressure_pops <- t.backpressure_pops + 1;
    emit t i
  end
  else false

let rec next t =
  refill t;
  (* One pass over the queue heads, ties going to the lower queue index:
     - [r1]: Rule 1, the earliest RECEIVE whose SEND is in the mmap;
     - [r2]: Rule 2, the lowest kind priority, then the earliest;
     - [first]: the earliest head, the force-fetch anchor;
     - [quiet]: the earliest RECEIVE with no SEND of its flow buffered,
       the noise suspect (only wanted while neither rule has a pick). *)
  let r1 = ref (-1) and r1_ts = ref 0 in
  let r2 = ref (-1) and r2_kind = ref 0 and r2_ts = ref 0 in
  let first = ref (-1) and first_ts = ref 0 in
  let quiet = ref (-1) and quiet_ts = ref 0 in
  for i = 0 to Array.length t.queues - 1 do
    let kind = t.head_kind.(i) in
    if kind >= 0 then begin
      let ts = t.head_ts.(i) in
      if !first < 0 || ts < !first_ts then begin
        first := i;
        first_ts := ts
      end;
      if kind <> code_receive then begin
        if !r2 < 0 || kind < !r2_kind || (kind = !r2_kind && ts < !r2_ts) then begin
          r2 := i;
          r2_kind := kind;
          r2_ts := ts
        end
      end
      else begin
        let flow = t.head_flow.(i) in
        if (not t.ablation.disable_rule1) && t.has_mmap_send flow then begin
          if !r1 < 0 || ts < !r1_ts then begin
            r1 := i;
            r1_ts := ts
          end
        end
        else if
          !r1 < 0 && !r2 < 0
          && (!quiet < 0 || ts < !quiet_ts)
          && buffered_send_count t flow = 0
        then begin
          quiet := i;
          quiet_ts := ts
        end
      end
    end
  done;
  if !first < 0 then false
  else begin
    let force = over_budget t in
    if !r1 >= 0 then emit_or_wait t ~force !r1 !r1_ts
    else if !r2 >= 0 then emit_or_wait t ~force !r2 !r2_ts
    else if (not t.ablation.disable_promotion) && try_promote t then next t
    else if try_force_fetch t !first_ts then next t
    else begin
      (* Every head is an unmatched RECEIVE. is_noise: no matching SEND
         in mmap nor anywhere in the buffer, with the input fetched well
         past the suspect. Heads whose matching SEND is buffered but
         unpromotable are not noise; discarding one of those (only
         possible under adversarial interleavings) is counted separately
         and asserted zero in tests. *)
      let forced = !quiet < 0 in
      let i = if forced then !first else !quiet in
      let decidable = noise_decidable t (if forced then !first_ts else !quiet_ts) in
      if (not decidable) && not force then false
      else begin
        if not decidable then t.backpressure_pops <- t.backpressure_pops + 1;
        ignore (pop t i : int);
        t.noise_discarded <- t.noise_discarded + 1;
        if forced then t.forced_discards <- t.forced_discards + 1;
        next t
      end
    end
  end

let candidate_rows t = t.streams.(t.candidate_stream).rows
let candidate_ctx t = Arena.ctx_id (candidate_rows t) t.candidate_row
let candidate_flow t = Arena.flow_id (candidate_rows t) t.candidate_row
let candidate_host t = t.candidate_stream
let candidate_origin t = Arena.origin (candidate_rows t) t.candidate_row

let candidate t =
  let rows = candidate_rows t and r = t.candidate_row in
  activity_of_row t ~kind:(Arena.kind_code rows r) ~ts:(Arena.ts rows r)
    ~ctx:(Arena.ctx_id rows r) ~flow:(Arena.flow_id rows r) ~size:(Arena.size rows r)

let rank t = if next t then Some (candidate t) else None

let buffered t = t.buffered
let watermark t = Sim_time.of_ns t.watermark
let resolved t = t.candidates + t.noise_discarded

let stragglers_active t =
  Array.fold_left (fun n s -> if s.lagging && not s.closed then n + 1 else n) 0 t.streams

let quarantine_log t = Deque.to_list t.quarantine_log

let quarantined_total t = Array.fold_left ( + ) 0 t.quarantine_counts

let stats t =
  {
    fetched = t.fetched;
    candidates = t.candidates;
    noise_discarded = t.noise_discarded;
    promotions = t.promotions;
    forced_fetches = t.forced_fetches;
    forced_discards = t.forced_discards;
    peak_buffered = t.peak_buffered;
    resorted = t.resorted;
    quarantined =
      List.map (fun r -> (r, t.quarantine_counts.(reason_index r))) all_reject_reasons;
    stragglers_evicted = t.stragglers_evicted;
    straggler_resyncs = t.straggler_resyncs;
    backpressure_pops = t.backpressure_pops;
  }
