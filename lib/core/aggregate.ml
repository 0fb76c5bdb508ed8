module Sim_time = Simnet.Sim_time

let finished_count (pattern : Pattern.t) =
  List.fold_left (fun n c -> if Cag.is_finished c then n + 1 else n) 0 pattern.Pattern.cags

let duration_s cag = Sim_time.span_to_float_s (Cag.duration cag)

(* Each hop's mean over its span column, summed per component label in
   first-appearance order; the hop components are the first finished
   member's, since the columns hold the same hops for every member. *)
let component_means n first (pattern : Pattern.t) =
  let order = ref [] in
  let table = Hashtbl.create 8 in
  List.iteri
    (fun i (hop : Latency.hop) ->
      let column = pattern.Pattern.spans.(i) in
      let sum = ref 0.0 in
      for j = 0 to n - 1 do
        sum := !sum +. Float.Array.get column j
      done;
      let mean = !sum /. float_of_int n in
      let key = Latency.component_label hop.Latency.comp in
      match Hashtbl.find_opt table key with
      | Some total -> Hashtbl.replace table key (total +. mean)
      | None ->
          order := hop.Latency.comp :: !order;
          Hashtbl.replace table key mean)
    (Latency.critical_path first);
  List.rev_map (fun c -> (c, Hashtbl.find table (Latency.component_label c))) !order

let of_pattern (pattern : Pattern.t) =
  let mean_total_s, components =
    match List.find_opt Cag.is_finished pattern.Pattern.cags with
    | None -> (0.0, [])
    | Some first ->
        let n = finished_count pattern in
        let means = component_means n first pattern in
        let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 means in
        let stat (comp, mean_s) =
          { Analysis.comp; share = (if total = 0.0 then 0.0 else mean_s /. total); mean_s }
        in
        let durations =
          List.fold_left
            (fun acc cag -> if Cag.is_finished cag then acc +. duration_s cag else acc)
            0.0 pattern.Pattern.cags
        in
        (durations /. float_of_int n, List.map stat means)
  in
  {
    Analysis.name = pattern.Pattern.name;
    signature = pattern.Pattern.signature;
    count = Pattern.count pattern;
    cag_ids = List.map (fun (c : Cag.t) -> c.Cag.cag_id) pattern.Pattern.cags;
    mean_total_s;
    components;
  }

let profiles_of_cags cags = List.map of_pattern (Pattern.classify cags)

let pp ppf (p : Analysis.profile) =
  Format.fprintf ppf "@[<v>average path %s (n=%d, mean total %.3f ms)" p.Analysis.name
    p.Analysis.count (p.Analysis.mean_total_s *. 1e3);
  List.iter
    (fun (c : Analysis.component_stat) ->
      Format.fprintf ppf "@,  %-18s %5.1f%%"
        (Latency.component_label c.Analysis.comp)
        (Report.clamp_share c.Analysis.share *. 100.0))
    p.Analysis.components;
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

let hop_tails (pattern : Pattern.t) =
  let path =
    match List.find_opt Cag.is_finished pattern.Pattern.cags with
    | Some cag -> Latency.critical_path cag
    | None -> invalid_arg "Aggregate: no finished CAGs"
  in
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
