module Arena = Trace.Arena
module Sim_time = Simnet.Sim_time
module Rng = Simnet.Rng
module Cag = Core.Cag
module Transform = Core.Transform
module R = Telemetry.Registry

type stats = {
  activities_before : int;
  activities_after : int;
  bytes_before : int;
  bytes_after : int;
  requests_total : int;
  requests_kept : int;
  non_causal : int;
  effective_p : float;
}

let ratio s =
  if s.bytes_after = 0 then Float.infinity
  else float_of_int s.bytes_before /. float_of_int s.bytes_after

let pp_stats ppf s =
  Format.fprintf ppf
    "%d -> %d activities, %d -> %d bytes (%.1fx); %d/%d requests kept (p=%.3f), %d non-causal"
    s.activities_before s.activities_after s.bytes_before s.bytes_after (ratio s)
    s.requests_kept s.requests_total s.effective_p s.non_causal

let time_span_s arenas =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) arena ->
        match Arena.time_bounds arena with
        | None -> (lo, hi)
        | Some (a, b) -> (min lo (Sim_time.to_ns a), max hi (Sim_time.to_ns b)))
      (max_int, min_int) arenas
  in
  if hi <= lo then 0.0 else float_of_int (hi - lo) /. 1e9

(* Fill [keep] (one slot per request, BEGIN-time order) according to the
   sampling mode; returns the per-request keep probability used. *)
let keep_mask ~sampling ~causal_activities ~bytes_before ~activities_before ~span_s keep =
  let probabilistic ~p ~seed =
    let rng = Rng.create ~seed in
    Array.iteri (fun i _ -> keep.(i) <- Rng.bernoulli rng ~p) keep;
    p
  in
  match sampling with
  | Policy.Keep_all -> 1.0
  | Policy.Head limit ->
      Array.iteri (fun i _ -> keep.(i) <- i < limit) keep;
      1.0
  | Policy.Probabilistic { p; seed } -> probabilistic ~p ~seed
  | Policy.Adaptive { budget_bytes_per_s; seed } ->
      let bytes_per_activity =
        if activities_before = 0 then 0.0
        else float_of_int bytes_before /. float_of_int activities_before
      in
      let causal_bytes = bytes_per_activity *. float_of_int causal_activities in
      let target = budget_bytes_per_s *. span_s in
      let p =
        if causal_bytes <= 0.0 || span_s <= 0.0 then 1.0
        else Float.min 1.0 (target /. causal_bytes)
      in
      probabilistic ~p ~seed

let record_telemetry telemetry stats =
  let counter help name = R.counter telemetry ~help name in
  R.add (counter "Raw bytes entering reduction" "pt_store_reduce_bytes_before_total")
    stats.bytes_before;
  R.add (counter "Bytes surviving reduction" "pt_store_reduce_bytes_after_total")
    stats.bytes_after;
  R.add (counter "Requests seen by reduction" "pt_store_reduce_requests_seen_total")
    stats.requests_total;
  R.add (counter "Requests kept by sampling" "pt_store_reduce_requests_kept_total")
    stats.requests_kept;
  R.add
    (counter "Activities removed by reduction" "pt_store_reduce_activities_dropped_total")
    (stats.activities_before - stats.activities_after);
  R.set
    (R.gauge telemetry ~help:"Per-request keep probability of the last reduction"
       "pt_store_reduce_effective_p")
    stats.effective_p

let encoded_bytes arenas =
  String.length
    (Trace.Binary_format.encode_native (List.filter (fun a -> Arena.length a > 0) arenas))

(* Every causal path, in BEGIN-time order (ties by id): the order the
   sampling masks index. *)
let requests_of (result : Core.Correlator.result) =
  List.sort
    (fun a b ->
      match Sim_time.compare (Cag.begin_ts a) (Cag.begin_ts b) with
      | 0 -> compare a.Cag.cag_id b.Cag.cag_id
      | c -> c)
    (result.Core.Correlator.cags @ result.Core.Correlator.deformed)
  |> Array.of_list

(* Row -> request index per host, -1 for a row no path claims. Every
   vertex names the raw rows it was built from ({!Cag.sources}: the
   creating syscall plus every chunk merged into it), so ownership is
   exact — no lookup on activity fields. *)
let owners arenas requests =
  let owner = Array.of_list (List.map (fun a -> Array.make (Arena.length a) (-1)) arenas) in
  Array.iteri
    (fun idx cag ->
      List.iter
        (fun v ->
          List.iter
            (fun s -> owner.(Cag.source_host s).(Cag.source_row s) <- idx)
            (Cag.sources v))
        (Cag.vertices cag))
    requests;
  owner

let apply ?(telemetry = R.default) ~correlate ~policy arenas =
  let activities_before = Arena.total arenas in
  let bytes_before = encoded_bytes arenas in
  if Policy.is_none policy || activities_before = 0 then begin
    let stats =
      {
        activities_before;
        activities_after = activities_before;
        bytes_before;
        bytes_after = bytes_before;
        requests_total = 0;
        requests_kept = 0;
        non_causal = 0;
        effective_p = 1.0;
      }
    in
    record_telemetry telemetry stats;
    (arenas, stats)
  end
  else begin
    let drop_programs = policy.Policy.drop_programs in
    (* The policy's program filter joins the transform's, so the
       throwaway correlation never sees those rows; the copy below asks
       the same memoised per-context decision. A private registry keeps
       the pass out of the pipeline's own self-profile. *)
    let transform = correlate.Core.Correlator.transform in
    let correlate =
      {
        correlate with
        Core.Correlator.transform =
          {
            transform with
            Transform.drop_programs = transform.Transform.drop_programs @ drop_programs;
          };
      }
    in
    let program_filter = Transform.memo (Transform.config ~entry_points:[] ~drop_programs ()) in
    let dropped arena i = Transform.classify_row program_filter arena i < 0 in
    let result = Core.Correlator.correlate_arena ~telemetry:(R.create ()) correlate arenas in
    let requests = requests_of result in
    let owner = owners arenas requests in
    let causal_activities = ref 0 and non_causal = ref 0 in
    List.iteri
      (fun h arena ->
        for i = 0 to Arena.length arena - 1 do
          if owner.(h).(i) >= 0 then incr causal_activities
          else if not (dropped arena i) then incr non_causal
        done)
      arenas;
    let keep = Array.make (Array.length requests) true in
    let effective_p =
      keep_mask ~sampling:policy.Policy.sampling ~causal_activities:!causal_activities
        ~bytes_before ~activities_before ~span_s:(time_span_s arenas) keep
    in
    let reduced =
      List.mapi
        (fun h arena ->
          let out =
            Arena.create_sid ~capacity:(max 1 (Arena.length arena)) (Arena.host_sid arena)
          in
          for i = 0 to Arena.length arena - 1 do
            let idx = owner.(h).(i) in
            let kept =
              if idx >= 0 then keep.(idx)
              else not (policy.Policy.drop_non_causal || dropped arena i)
            in
            if kept then Arena.append_row out arena i
          done;
          out)
        arenas
    in
    let stats =
      {
        activities_before;
        activities_after = Arena.total reduced;
        bytes_before;
        bytes_after = encoded_bytes reduced;
        requests_total = Array.length requests;
        requests_kept = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep;
        non_causal = !non_causal;
        effective_p;
      }
    in
    record_telemetry telemetry stats;
    (reduced, stats)
  end
