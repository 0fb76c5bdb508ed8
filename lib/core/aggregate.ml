module Sim_time = Simnet.Sim_time

type hop_stat = { comp : Latency.component; mean_s : float; std_s : float }

type t = {
  pattern_name : string;
  count : int;
  hops : hop_stat list;
  mean_total_s : float;
}

let first_finished (pattern : Pattern.t) = List.find_opt Cag.is_finished pattern.Pattern.cags

let finished_count (pattern : Pattern.t) =
  List.fold_left (fun n c -> if Cag.is_finished c then n + 1 else n) 0 pattern.Pattern.cags

(* The hop components, read off the first finished member's critical
   path; the pattern's span columns hold the same hops for every member. *)
let components ?normalize ~what (pattern : Pattern.t) =
  match first_finished pattern with
  | Some cag -> Latency.critical_path ?normalize cag
  | None -> invalid_arg (what ^ ": no finished CAGs")

let duration_s cag = Sim_time.span_to_float_s (Cag.duration cag)

let of_pattern ?normalize (pattern : Pattern.t) =
  let path = components ?normalize ~what:"Aggregate.of_pattern" pattern in
  let n = finished_count pattern in
  let hops =
    List.mapi
      (fun i (hop : Latency.hop) ->
        let column = pattern.Pattern.spans.(i) in
        let sum = ref 0.0 in
        for j = 0 to n - 1 do
          sum := !sum +. Float.Array.get column j
        done;
        let mean = !sum /. float_of_int n in
        let squares = ref 0.0 in
        for j = 0 to n - 1 do
          squares := !squares +. ((Float.Array.get column j -. mean) ** 2.0)
        done;
        { comp = hop.Latency.comp; mean_s = mean; std_s = sqrt (!squares /. float_of_int n) })
      path
  in
  let mean_total_s =
    List.fold_left
      (fun acc cag -> if Cag.is_finished cag then acc +. duration_s cag else acc)
      0.0 pattern.Pattern.cags
    /. float_of_int n
  in
  { pattern_name = pattern.Pattern.name; count = n; hops; mean_total_s }

let component_latencies t =
  let order = ref [] in
  let table = Hashtbl.create 8 in
  List.iter
    (fun h ->
      let key = Latency.component_label h.comp in
      match Hashtbl.find_opt table key with
      | Some total -> Hashtbl.replace table key (total +. h.mean_s)
      | None ->
          order := h.comp :: !order;
          Hashtbl.replace table key h.mean_s)
    t.hops;
  List.rev_map (fun c -> (c, Hashtbl.find table (Latency.component_label c))) !order

let component_percentages t =
  let parts = component_latencies t in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 parts in
  if total = 0.0 then List.map (fun (c, _) -> (c, 0.0)) parts
  else List.map (fun (c, s) -> (c, s /. total)) parts

let pp ppf t =
  Format.fprintf ppf "@[<v>average path %s (n=%d, mean total %.3f ms)" t.pattern_name t.count
    (t.mean_total_s *. 1e3);
  List.iter
    (fun (c, pct) ->
      Format.fprintf ppf "@,  %-18s %5.1f%%" (Latency.component_label c)
        (Report.clamp_share pct *. 100.0))
    (component_percentages t);
  Format.fprintf ppf "@]"

type hop_tail = {
  tail_comp : Latency.component;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  tail_max_s : float;
}

(* Nearest-rank estimator over the sorted samples: the value at index
   round(p * (n - 1)) — i.e. linear rank interpolation rounded to the
   nearest member, so every percentile is an actual observed sample. For
   n = 1 every p yields the single sample; an empty array yields 0.
   Callers must pass finite samples only ([sorted_finite]): NaN compares
   greater than everything under [Float.compare], so a single NaN sample
   would otherwise sort last and silently masquerade as the p99/max. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1))))))

(* Ascending in-place sort of finite samples: a top-down merge sort over
   [lo, hi) through [tmp], insertion sort on short runs. Every comparison
   is a float comparison, with no closure call. *)
let sort_floats (a : float array) =
  let insertion lo hi =
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  in
  let tmp = Array.make (Array.length a) 0.0 in
  let rec sort lo hi =
    if hi - lo <= 16 then insertion lo hi
    else begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      if a.(mid - 1) > a.(mid) then begin
        Array.blit a lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid && !j < hi do
          if tmp.(!i) <= a.(!j) then begin
            a.(!k) <- tmp.(!i);
            incr i
          end
          else begin
            a.(!k) <- a.(!j);
            incr j
          end;
          incr k
        done;
        Array.blit tmp !i a !k (mid - !i)
      end
    end
  in
  sort 0 (Array.length a)

(* The finite samples, sorted ascending. *)
let sorted_samples samples =
  let n = Float.Array.length samples in
  let finite = ref 0 in
  for i = 0 to n - 1 do
    if Float.is_finite (Float.Array.get samples i) then incr finite
  done;
  let a = Array.make !finite 0.0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let x = Float.Array.get samples i in
    if Float.is_finite x then begin
      a.(!k) <- x;
      incr k
    end
  done;
  sort_floats a;
  a

(* Drop non-finite samples (NaN, +/-inf) and sort ascending. *)
let sorted_finite samples = sorted_samples (Float.Array.of_list samples)

let top sorted = if Array.length sorted = 0 then 0.0 else sorted.(Array.length sorted - 1)

let hop_tails ?normalize (pattern : Pattern.t) =
  let path = components ?normalize ~what:"Aggregate" pattern in
  List.mapi
    (fun i (hop : Latency.hop) ->
      let samples = sorted_samples pattern.Pattern.spans.(i) in
      {
        tail_comp = hop.Latency.comp;
        p50_s = percentile samples 0.50;
        p90_s = percentile samples 0.90;
        p99_s = percentile samples 0.99;
        tail_max_s = top samples;
      })
    path

type total_tail = { t_p50_s : float; t_p90_s : float; t_p99_s : float; t_max_s : float }

let total_tail (pattern : Pattern.t) =
  let n = finished_count pattern in
  if n = 0 then invalid_arg "Aggregate: no finished CAGs";
  let durations = Float.Array.create n in
  ignore
    (List.fold_left
       (fun k cag ->
         if Cag.is_finished cag then begin
           Float.Array.set durations k (duration_s cag);
           k + 1
         end
         else k)
       0 pattern.Pattern.cags);
  let samples = sorted_samples durations in
  {
    t_p50_s = percentile samples 0.50;
    t_p90_s = percentile samples 0.90;
    t_p99_s = percentile samples 0.99;
    t_max_s = top samples;
  }

let pp_tails ppf pattern =
  let tt = total_tail pattern in
  Format.fprintf ppf "@[<v>tail of %s (n=%d): total p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms"
    pattern.Pattern.name
    (finished_count pattern)
    (tt.t_p50_s *. 1e3) (tt.t_p90_s *. 1e3) (tt.t_p99_s *. 1e3) (tt.t_max_s *. 1e3);
  List.iter
    (fun h ->
      Format.fprintf ppf "@,  %-18s p50 %7.3fms  p90 %7.3fms  p99 %7.3fms"
        (Latency.component_label h.tail_comp)
        (h.p50_s *. 1e3) (h.p90_s *. 1e3) (h.p99_s *. 1e3))
    (hop_tails pattern);
  Format.fprintf ppf "@]"
