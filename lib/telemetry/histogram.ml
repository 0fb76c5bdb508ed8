let lo_decade = -9.0 (* buckets span 1e-9 .. 1e9 *)
let decades = 18

(* All mutable state sits behind [lock] so histograms can be observed
   from several domains at once (the sharded correlator reports every
   epoch into the same registry) without losing updates. Observations
   are a handful of array/field writes, so one uncontended mutex per
   histogram is cheap next to the work being measured. *)
type t = {
  lock : Mutex.t;
  per_decade : int;
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ?(buckets_per_decade = 16) () =
  if buckets_per_decade <= 0 then
    invalid_arg "Histogram.create: buckets_per_decade must be positive";
  {
    lock = Mutex.create ();
    per_decade = buckets_per_decade;
    counts = Array.make (decades * buckets_per_decade) 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let index t v =
  if v <= 0.0 || not (Float.is_finite v) then
    if v > 0.0 then Array.length t.counts - 1 (* +inf *) else 0
  else
    let i =
      int_of_float (Float.floor ((Float.log10 v -. lo_decade) *. float_of_int t.per_decade))
    in
    max 0 (min (Array.length t.counts - 1) i)

let observe_n t v n =
  if n > 0 && not (Float.is_nan v) then
    locked t (fun () ->
        let i = index t v in
        t.counts.(i) <- t.counts.(i) + n;
        t.count <- t.count + n;
        t.sum <- t.sum +. (v *. float_of_int n);
        if v < t.min_v then t.min_v <- v;
        if v > t.max_v then t.max_v <- v)

let observe t v = observe_n t v 1

let count t = locked t (fun () -> t.count)
let sum t = locked t (fun () -> t.sum)

let mean t =
  locked t (fun () -> if t.count = 0 then 0.0 else t.sum /. float_of_int t.count)

let min_value t = locked t (fun () -> if t.count = 0 then 0.0 else t.min_v)
let max_value t = locked t (fun () -> if t.count = 0 then 0.0 else t.max_v)

let upper_bound t i = Float.pow 10.0 (lo_decade +. (float_of_int (i + 1) /. float_of_int t.per_decade))

let quantile t q =
  locked t (fun () ->
      if t.count = 0 then 0.0
      else begin
        let target = q *. float_of_int t.count in
        let acc = ref 0 and i = ref 0 and found = ref (Array.length t.counts - 1) in
        (try
           while !i < Array.length t.counts do
             acc := !acc + t.counts.(!i);
             if float_of_int !acc >= target && !acc > 0 then begin
               found := !i;
               raise Exit
             end;
             incr i
           done
         with Exit -> ());
        Float.max t.min_v (Float.min t.max_v (upper_bound t !found))
      end)

let clear t =
  locked t (fun () ->
      Array.fill t.counts 0 (Array.length t.counts) 0;
      t.count <- 0;
      t.sum <- 0.0;
      t.min_v <- infinity;
      t.max_v <- neg_infinity)

type bucket = { upper : float; cumulative : int }

let buckets t =
  locked t (fun () ->
      let acc = ref 0 in
      let out = ref [] in
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            acc := !acc + n;
            out := { upper = upper_bound t i; cumulative = !acc } :: !out
          end)
        t.counts;
      List.rev !out)

let merge_into ~dst src =
  if dst.per_decade <> src.per_decade then
    invalid_arg "Histogram.merge_into: differing buckets_per_decade";
  (* Snapshot the source first so the two locks are never held together
     (concurrent merges in opposite directions would deadlock). *)
  let counts, count, sum, min_v, max_v =
    locked src (fun () ->
        (Array.copy src.counts, src.count, src.sum, src.min_v, src.max_v))
  in
  locked dst (fun () ->
      Array.iteri (fun i n -> dst.counts.(i) <- dst.counts.(i) + n) counts;
      dst.count <- dst.count + count;
      dst.sum <- dst.sum +. sum;
      if min_v < dst.min_v then dst.min_v <- min_v;
      if max_v > dst.max_v then dst.max_v <- max_v)
