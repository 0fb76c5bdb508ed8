module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

type config = {
  transform : Transform.config;
  window : Sim_time.span;
  skew_allowance : Sim_time.span;
  ablation : Ranker.ablation;
}

let config ~transform ?(window = Sim_time.ms 10) ?(skew_allowance = Sim_time.sec 1)
    ?(ablation = Ranker.no_ablation) () =
  { transform; window; skew_allowance; ablation }

type result = {
  cags : Cag.t list;
  deformed : Cag.t list;
  ranker_stats : Ranker.stats;
  engine_stats : Cag_engine.stats;
  correlation_time : float;
  peak_memory_proxy : int;
  memory_bytes_estimate : int;
}

(* Rough per-record footprint: an activity record plus its share of queue,
   index-map and vertex overhead, in bytes. Used only to scale the memory
   proxy into familiar units. *)
let bytes_per_record = 160

(* The rank/step/gc loop over transformed per-host arenas in log order:
   the one correlation core, which every entry point runs. *)
let correlate_rows ?(telemetry = R.default) ?started ?(on_path = ignore) cfg arenas =
  let t0 = match started with Some t -> t | None -> Unix.gettimeofday () in
  let activities_in =
    R.counter telemetry ~help:"Activities entering the correlator after transform"
      "pt_correlator_activities_total"
  in
  let commits =
    R.counter telemetry ~help:"Candidates committed to the CAG engine"
      "pt_correlator_commits_total"
  in
  let occupancy =
    R.histogram telemetry
      ~help:"Ranker window occupancy (buffered activities), sampled per candidate"
      "pt_correlator_window_occupancy"
  in
  R.add activities_in (Trace.Arena.total arenas);
  let engine = Cag_engine.create ~on_finished:on_path () in
  let ranker =
    Ranker.create_native ~window:cfg.window ~skew_allowance:cfg.skew_allowance
      ~ablation:cfg.ablation
      ~has_mmap_send:(Cag_engine.has_mmap_send engine)
      arenas
  in
  let peak = ref 0 in
  let steps = ref 0 in
  let loop () =
    while Ranker.next ranker do
      let activity = Ranker.candidate ranker in
      Cag_engine.step_ids engine ~ctx:(Ranker.candidate_ctx ranker)
        ~flow:(Ranker.candidate_flow ranker)
        ~source:
          (Cag.source ~host:(Ranker.candidate_host ranker) ~row:(Ranker.candidate_origin ranker))
        activity;
      incr steps;
      R.incr commits;
      Telemetry.Histogram.observe occupancy (float_of_int (Ranker.buffered ranker));
      (* Periodically evict unmatched sends that can no longer match:
         anything older than twice the skew allowance behind the
         correlation frontier. *)
      if !steps land 0xfff = 0 then begin
        (* Clamp at the trace origin: early activities would otherwise
           yield a negative horizon, and a SEND stamped exactly at time
           zero must never be evicted while still matchable. *)
        let horizon =
          Sim_time.max Sim_time.zero
            (Sim_time.add activity.Trace.Activity.timestamp
               (Sim_time.span_scale (-2.0) cfg.skew_allowance))
        in
        ignore (Cag_engine.gc engine ~older_than:horizon)
      end;
      let held =
        Ranker.buffered ranker + Cag_engine.live_vertices engine
        + Cag_engine.mmap_entries engine
      in
      if held > !peak then peak := held
    done
  in
  R.time telemetry ~labels:[ ("stage", "rank_correlate") ] "pt_correlator_stage_seconds" loop;
  let correlation_time = Unix.gettimeofday () -. t0 in
  let cags = Cag_engine.finished engine in
  let deformed = Cag_engine.unfinished engine in
  let ranker_stats = Ranker.stats ranker in
  let engine_stats = Cag_engine.stats engine in
  Pipeline_metrics.add_ranker_stats telemetry ranker_stats;
  Pipeline_metrics.add_engine_stats telemetry engine_stats;
  R.add
    (R.counter telemetry ~help:"Causal paths produced"
       ~labels:[ ("state", "finished") ]
       "pt_correlator_paths_total")
    (List.length cags);
  R.add
    (R.counter telemetry ~help:"Causal paths produced"
       ~labels:[ ("state", "deformed") ]
       "pt_correlator_paths_total")
    (List.length deformed);
  R.set_max
    (R.gauge telemetry ~help:"Peak simultaneously-held records (Fig. 11 memory proxy)"
       "pt_correlator_peak_memory_records")
    (float_of_int !peak);
  {
    cags;
    deformed;
    ranker_stats;
    engine_stats;
    correlation_time;
    peak_memory_proxy = !peak;
    memory_bytes_estimate = !peak * bytes_per_record;
  }

(* Native entry: transform in the arena representation (memoised per
   interned id; the output is back in log order) and rank the transformed
   rows in place. *)
let correlate_arena ?(telemetry = R.default) ?on_path cfg arenas =
  let started = Unix.gettimeofday () in
  let prepared =
    R.time telemetry ~labels:[ ("stage", "transform") ] "pt_correlator_stage_seconds" (fun () ->
        Transform.apply_native cfg.transform arenas)
  in
  correlate_rows ~telemetry ~started ?on_path cfg prepared

let correlate ?telemetry ?on_path cfg collection =
  correlate_arena ?telemetry ?on_path cfg (Trace.Arena.of_collection collection)
