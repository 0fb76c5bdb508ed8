(* Stage spans and per-call accumulators, recorded by the benchmark
   around its calls into each layer. Spans stay in memory until the run
   writes them out as Chrome trace-event JSON. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  args : (string * float) list;
}

type t = { mutable next_id : int; mutable stack : int list; mutable rev_spans : span list }

let create () = { next_id = 0; stack = []; rev_spans = [] }

(* In start order, which for properly nested spans is also creation order. *)
let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.rev_spans

let duration s = s.stop -. s.start

(* [args] is evaluated when the span closes, so it can report counters
   the wrapped call has just filled. *)
let with_span t ?(args = fun () -> []) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start = now () in
  let close () =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.rev_spans <- { id; name; start; stop; parent; args = args () } :: t.rev_spans
  in
  Fun.protect ~finally:close f

let find t name = List.find_opt (fun s -> String.equal s.name name) t.rev_spans

let busy t name = match find t name with Some s -> duration s | None -> 0.0

(* Covered length of [lo, hi] by a set of intervals, overlaps counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      all
  in
  duration s -. covered ~lo:s.start ~hi:s.stop children

(* Chrome trace-event format: one complete ("X") event per span, in
   microseconds from the first span, on a single thread so nesting
   renders as a flame. Opens in Perfetto or chrome://tracing. *)
let to_chrome_json t =
  let all = spans t in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let us x = Core.Json.Float ((x -. origin) *. 1e6) in
  let event s =
    Core.Json.Obj
      [
        ("name", Core.Json.String s.name);
        ("ph", Core.Json.String "X");
        ("ts", us s.start);
        ("dur", Core.Json.Float (duration s *. 1e6));
        ("pid", Core.Json.Int 1);
        ("tid", Core.Json.Int 1);
        ( "args",
          Core.Json.Obj
            ([
               ("id", Core.Json.Int s.id);
               ( "parent",
                 match s.parent with Some p -> Core.Json.Int p | None -> Core.Json.Null );
               ("self_ms", Core.Json.Float (self_time all s *. 1e3));
             ]
            @ List.map (fun (k, v) -> (k, Core.Json.Float v)) s.args) );
      ]
  in
  Core.Json.to_string
    (Core.Json.Obj
       [
         ("traceEvents", Core.Json.List (List.map event all));
         ("displayTimeUnit", Core.Json.String "ms");
       ])

(* Inner-loop calls are too many for one span each: their wall time and
   minor-heap words accumulate here instead. Both fields are floats, so
   the record is stored flat and updating it allocates nothing. *)
type acc = { mutable busy_s : float; mutable minor_words : float }

let acc () = { busy_s = 0.0; minor_words = 0.0 }

let measure acc f x =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f x in
  let t1 = now () in
  acc.busy_s <- acc.busy_s +. (t1 -. t0);
  acc.minor_words <- acc.minor_words +. (Gc.minor_words () -. w0);
  r

(* Words allocated by [f], minor and direct-to-major alike (large arrays
   bypass the minor heap). The minor heap is emptied first, so the words
   promoted while [f] runs are all [f]'s own and the count repeats
   exactly. For stage-level calls only: [Gc.counters] itself allocates. *)
let allocated f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
