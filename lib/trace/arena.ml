module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

(* Struct-of-arrays: one byte + four ints per record, all attribute ids
   from the process-wide {!Intern} tables. Copying rows between arenas
   (writer batching, query merging, k-way ingest merges) is plain integer
   blits — no re-interning, no allocation per record. *)
type t = {
  host : int;  (* Intern string id of the origin hostname *)
  mutable kinds : Bytes.t;  (* Activity.kind_to_code *)
  mutable ts : int array;  (* ns, local clock of [host] *)
  mutable ctx : int array;  (* Intern context ids *)
  mutable flow : int array;  (* Intern flow ids *)
  mutable size : int array;  (* message sizes in bytes *)
  mutable origin : int array;
      (* Raw row each row came from, on derived arenas only; [[||]] on
         raw arenas, whose rows are their own origin. *)
  mutable len : int;
}

let grows_counter =
  lazy (R.counter R.default ~help:"Arena capacity growths (doublings)" "pt_arena_grows_total")

let peak_rows_gauge =
  lazy (R.gauge R.default ~help:"Largest arena capacity allocated, in rows" "pt_arena_peak_rows")

let create_sid ?(capacity = 64) ?(origins = false) host =
  let capacity = max 1 capacity in
  {
    host;
    kinds = Bytes.create capacity;
    ts = Array.make capacity 0;
    ctx = Array.make capacity 0;
    flow = Array.make capacity 0;
    size = Array.make capacity 0;
    origin = (if origins then Array.make capacity (-1) else [||]);
    len = 0;
  }

let create ?capacity ?origins ~host () = create_sid ?capacity ?origins (Intern.string_id host)
let has_origins t = Array.length t.origin > 0
let host_sid t = t.host
let hostname t = Intern.string_of_id t.host
let length t = t.len
let clear t = t.len <- 0
let capacity t = Array.length t.ts

let grow t =
  let cap = 2 * Array.length t.ts in
  let kinds = Bytes.create cap in
  Bytes.blit t.kinds 0 kinds 0 t.len;
  t.kinds <- kinds;
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.ts <- widen t.ts;
  t.ctx <- widen t.ctx;
  t.flow <- widen t.flow;
  t.size <- widen t.size;
  if has_origins t then t.origin <- widen t.origin;
  R.incr (Lazy.force grows_counter);
  R.set_max (Lazy.force peak_rows_gauge) (float_of_int cap)

let set t i ~kind ~ts ~ctx ~flow ~size =
  Bytes.unsafe_set t.kinds i (Char.unsafe_chr kind);
  t.ts.(i) <- ts;
  t.ctx.(i) <- ctx;
  t.flow.(i) <- flow;
  t.size.(i) <- size;
  if has_origins t then t.origin.(i) <- -1

let append t ~kind ~ts ~ctx ~flow ~size =
  if t.len = Array.length t.ts then grow t;
  set t t.len ~kind ~ts ~ctx ~flow ~size;
  t.len <- t.len + 1

let insert t i ~kind ~ts ~ctx ~flow ~size =
  if i < 0 || i > t.len then invalid_arg "Arena.insert";
  if t.len = Array.length t.ts then grow t;
  let n = t.len - i in
  Bytes.blit t.kinds i t.kinds (i + 1) n;
  Array.blit t.ts i t.ts (i + 1) n;
  Array.blit t.ctx i t.ctx (i + 1) n;
  Array.blit t.flow i t.flow (i + 1) n;
  Array.blit t.size i t.size (i + 1) n;
  if has_origins t then Array.blit t.origin i t.origin (i + 1) n;
  set t i ~kind ~ts ~ctx ~flow ~size;
  t.len <- t.len + 1

let drop_front t n =
  if n < 0 || n > t.len then invalid_arg "Arena.drop_front";
  let rest = t.len - n in
  Bytes.blit t.kinds n t.kinds 0 rest;
  Array.blit t.ts n t.ts 0 rest;
  Array.blit t.ctx n t.ctx 0 rest;
  Array.blit t.flow n t.flow 0 rest;
  Array.blit t.size n t.size 0 rest;
  if has_origins t then Array.blit t.origin n t.origin 0 rest;
  t.len <- rest

let append_activity t (a : Activity.t) =
  append t ~kind:(Activity.kind_to_code a.kind)
    ~ts:(Sim_time.to_ns a.timestamp)
    ~ctx:(Intern.context_id a.context)
    ~flow:(Intern.flow_id a.message.flow)
    ~size:a.message.size

let check t i = if i < 0 || i >= t.len then invalid_arg "Arena: row index out of bounds"

let kind_code t i =
  check t i;
  Char.code (Bytes.unsafe_get t.kinds i)

let kind t i =
  match Activity.kind_of_code (kind_code t i) with
  | Some k -> k
  | None -> assert false (* append only admits valid codes *)

let ts t i =
  check t i;
  t.ts.(i)

let ctx_id t i =
  check t i;
  t.ctx.(i)

let flow_id t i =
  check t i;
  t.flow.(i)

let size t i =
  check t i;
  t.size.(i)

let origin t i =
  check t i;
  if has_origins t then t.origin.(i) else i

let set_origin t i o =
  check t i;
  if not (has_origins t) then invalid_arg "Arena.set_origin: no origin column";
  t.origin.(i) <- o

(* Materialise one row. The context and flow records are the canonical
   interned ones — shared, so repeated rows cost two fresh blocks
   (the activity and its message), not five. *)
let get t i =
  check t i;
  {
    Activity.kind =
      (match Activity.kind_of_code (Char.code (Bytes.unsafe_get t.kinds i)) with
      | Some k -> k
      | None -> assert false);
    timestamp = Sim_time.of_ns t.ts.(i);
    context = Intern.context_of_id t.ctx.(i);
    message = { flow = Intern.flow_of_id t.flow.(i); size = t.size.(i) };
  }

let append_row dst src i =
  check src i;
  append dst
    ~kind:(Char.code (Bytes.unsafe_get src.kinds i))
    ~ts:src.ts.(i) ~ctx:src.ctx.(i) ~flow:src.flow.(i) ~size:src.size.(i);
  if has_origins dst then dst.origin.(dst.len - 1) <- origin src i

(* Bulk row copy: {!merge_runs} hands over whole runs, and a run is four
   [Array.blit]s and a [Bytes.blit] instead of per-row appends. *)
let append_range dst src ~lo ~hi =
  if lo < 0 || hi > src.len || lo > hi then invalid_arg "Arena.append_range";
  let n = hi - lo in
  if n > 0 then begin
    while dst.len + n > Array.length dst.ts do
      grow dst
    done;
    Bytes.blit src.kinds lo dst.kinds dst.len n;
    Array.blit src.ts lo dst.ts dst.len n;
    Array.blit src.ctx lo dst.ctx dst.len n;
    Array.blit src.flow lo dst.flow dst.len n;
    Array.blit src.size lo dst.size dst.len n;
    if has_origins dst then
      if has_origins src then Array.blit src.origin lo dst.origin dst.len n
      else
        for k = 0 to n - 1 do
          dst.origin.(dst.len + k) <- lo + k
        done;
    dst.len <- dst.len + n
  end

(* Row iteration without materialisation or per-field bounds checks: one
   closure call per row instead of five checked accessor calls — the
   encoder's inner loop. *)
let iter_native t f =
  for i = 0 to t.len - 1 do
    f
      ~kind:(Char.code (Bytes.unsafe_get t.kinds i))
      ~ts:(Array.unsafe_get t.ts i) ~ctx:(Array.unsafe_get t.ctx i)
      ~flow:(Array.unsafe_get t.flow i)
      ~size:(Array.unsafe_get t.size i)
  done


(* Row order mirroring {!Activity.compare_by_time}: timestamp, then
   context (via the canonical records, so exactly compare_context), then
   kind priority. [compare_rows] breaks remaining ties by row index so a
   permutation sort is stable, like the List.stable_sort the text path
   used. *)
let kind_priority_of_code = function 0 -> 0 | 1 -> 1 | 2 -> 2 | _ -> 3

let compare_across a i b j =
  match Int.compare a.ts.(i) b.ts.(j) with
  | 0 -> (
      match Intern.compare_context_id a.ctx.(i) b.ctx.(j) with
      | 0 ->
          Int.compare
            (kind_priority_of_code (Char.code (Bytes.unsafe_get a.kinds i)))
            (kind_priority_of_code (Char.code (Bytes.unsafe_get b.kinds j)))
      | c -> c)
  | c -> c

let compare_rows t i j = match compare_across t i t j with 0 -> Int.compare i j | c -> c

(* First row in [lo+1, cap) of [t] whose timestamp reaches [bound], given
   that row [lo]'s is below it: exponential probe, then binary search. *)
let gallop t ~lo ~cap bound =
  let prev = ref lo and step = ref 1 and probe = ref (lo + 1) in
  while !probe < cap && t.ts.(!probe) < bound do
    prev := !probe;
    step := 2 * !step;
    probe := lo + !step
  done;
  let l = ref (!prev + 1) and r = ref (min !probe cap) in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if t.ts.(m) < bound then l := m + 1 else r := m
  done;
  !l

(* Each step scans the heads (inputs are one arena per host) for the
   least row and the runner-up timestamp, then hands over the least
   head's whole run of rows strictly below that timestamp: those precede
   every other head, in their own arena's order. Only a timestamp tie
   between heads falls back to the full row order, one row at a time. *)
let merge_runs arenas f =
  let k = Array.length arenas in
  let pos = Array.make k 0 in
  let remaining = ref 0 in
  Array.iter (fun a -> remaining := !remaining + a.len) arenas;
  while !remaining > 0 do
    let best = ref (-1) and best_ts = ref max_int and next_ts = ref max_int in
    for h = 0 to k - 1 do
      let a = arenas.(h) and i = pos.(h) in
      if i < a.len then begin
        let ts = a.ts.(i) in
        if !best < 0 then begin
          best := h;
          best_ts := ts
        end
        else if
          ts < !best_ts
          || (ts = !best_ts && compare_across a i arenas.(!best) pos.(!best) < 0)
        then begin
          next_ts := !best_ts;
          best := h;
          best_ts := ts
        end
        else if ts < !next_ts then next_ts := ts
      end
    done;
    let h = !best in
    let a = arenas.(h) and lo = pos.(h) in
    let hi =
      if !best_ts = !next_ts then lo + 1
      else if !next_ts = max_int then a.len
      else gallop a ~lo ~cap:a.len !next_ts
    in
    pos.(h) <- hi;
    remaining := !remaining - (hi - lo);
    f h lo hi
  done

let iter_merged arenas f =
  merge_runs arenas (fun h lo hi ->
      for i = lo to hi - 1 do
        f h i
      done)

let is_sorted t =
  let ok = ref true in
  for i = 1 to t.len - 1 do
    if compare_rows t (i - 1) i > 0 then ok := false
  done;
  !ok

let sort_by_time t =
  if not (is_sorted t) then begin
    let perm = Array.init t.len Fun.id in
    Array.sort (fun i j -> compare_rows t i j) perm;
    let permute_int a =
      let b = Array.make (Array.length a) 0 in
      for i = 0 to t.len - 1 do
        b.(i) <- a.(perm.(i))
      done;
      Array.blit b 0 a 0 t.len
    in
    let kinds = Bytes.create (Bytes.length t.kinds) in
    for i = 0 to t.len - 1 do
      Bytes.unsafe_set kinds i (Bytes.unsafe_get t.kinds perm.(i))
    done;
    Bytes.blit kinds 0 t.kinds 0 t.len;
    permute_int t.ts;
    permute_int t.ctx;
    permute_int t.flow;
    permute_int t.size;
    if has_origins t then permute_int t.origin
  end

let time_bounds t =
  if t.len = 0 then None
  else begin
    let lo = ref t.ts.(0) and hi = ref t.ts.(0) in
    for i = 1 to t.len - 1 do
      if t.ts.(i) < !lo then lo := t.ts.(i);
      if t.ts.(i) > !hi then hi := t.ts.(i)
    done;
    Some (Sim_time.of_ns !lo, Sim_time.of_ns !hi)
  end

(* ---- conversions to and from the record-list world ---- *)

let of_log log =
  let t = create ~capacity:(max 1 (Log.length log)) ~host:(Log.hostname log) () in
  Log.iter log (append_activity t);
  t

let to_log t =
  if is_sorted t then begin
    (* already in Log order: append directly instead of re-sorting *)
    let log = Log.create ~hostname:(hostname t) in
    for i = 0 to t.len - 1 do
      Log.append log (get t i)
    done;
    log
  end
  else Log.of_list ~hostname:(hostname t) (List.init t.len (get t))

let of_collection c = List.map of_log c
let to_collection ts = List.map to_log ts
let total ts = List.fold_left (fun acc t -> acc + t.len) 0 ts

let copy t =
  let c = create_sid ~capacity:(max 1 t.len) ~origins:(has_origins t) t.host in
  Bytes.blit t.kinds 0 c.kinds 0 t.len;
  Array.blit t.ts 0 c.ts 0 t.len;
  Array.blit t.ctx 0 c.ctx 0 t.len;
  Array.blit t.flow 0 c.flow 0 t.len;
  Array.blit t.size 0 c.size 0 t.len;
  if has_origins t then Array.blit t.origin 0 c.origin 0 t.len;
  c.len <- t.len;
  c

let sorted t =
  if is_sorted t then t
  else begin
    let c = copy t in
    sort_by_time c;
    c
  end
