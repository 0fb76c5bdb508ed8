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
}

module Session = struct
  type t = {
    telemetry : R.t;
    skew_allowance : Sim_time.span;
    engine : Cag_engine.t;
    ranker : Ranker.t;
    on_path : Ranker.t -> Cag.t -> unit;
    mutable occupancy : int array;  (* commits seen at each window occupancy *)
    mutable commits : int;
    mutable peak : int;
    mutable closed : bool;
  }

  let create ?(telemetry = R.default) ?(on_path = fun _ _ -> ()) (cfg : config) make_ranker =
    let engine = Cag_engine.create () in
    {
      telemetry;
      skew_allowance = cfg.skew_allowance;
      engine;
      ranker = make_ranker ~has_mmap_send:(Cag_engine.has_mmap_send engine);
      on_path;
      occupancy = Array.make 256 0;
      commits = 0;
      peak = 0;
      closed = false;
    }

  let ranker s = s.ranker
  let engine s = s.engine

  (* Counted into a plain array, not the registry's locked histogram: the
     sample is taken on every commit. *)
  let note_occupancy s b =
    if b >= Array.length s.occupancy then begin
      let a = Array.make (Int.max (b + 1) (2 * Array.length s.occupancy)) 0 in
      Array.blit s.occupancy 0 a 0 (Array.length s.occupancy);
      s.occupancy <- a
    end;
    s.occupancy.(b) <- s.occupancy.(b) + 1

  (* Correlate the candidate [Ranker.next] just popped. *)
  let commit s =
    let r = s.ranker and e = s.engine in
    let activity = Ranker.candidate r in
    let finished = Cag_engine.finished_count e in
    Cag_engine.step_ids e ~ctx:(Ranker.candidate_ctx r) ~flow:(Ranker.candidate_flow r)
      ~source:(Cag.source ~host:(Ranker.candidate_host r) ~row:(Ranker.candidate_origin r))
      activity;
    if Cag_engine.finished_count e > finished then s.on_path r (Cag_engine.last_finished e);
    s.commits <- s.commits + 1;
    note_occupancy s (Ranker.buffered r);
    (* Periodically evict unmatched sends that can no longer match:
       anything older than twice the skew allowance behind the
       correlation frontier. *)
    if s.commits land 0xfff = 0 then begin
      (* Clamp at the trace origin: early activities would otherwise
         yield a negative horizon, and a SEND stamped exactly at time
         zero must never be evicted while still matchable. *)
      let horizon =
        Sim_time.max Sim_time.zero
          (Sim_time.add activity.Trace.Activity.timestamp
             (Sim_time.span_scale (-2.0) s.skew_allowance))
      in
      ignore (Cag_engine.gc e ~older_than:horizon)
    end;
    let held = Ranker.held r + Cag_engine.live_vertices e + Cag_engine.mmap_entries e in
    if held > s.peak then s.peak <- held

  let run s =
    while Ranker.next s.ranker do
      commit s
    done

  let publish_ranker reg (s : Ranker.stats) =
    let c name help v = R.add (R.counter reg ~help name) v in
    c "pt_ranker_fetched_total" "Activities pulled into the ranker buffer" s.fetched;
    c "pt_ranker_candidates_total" "Candidates emitted by the ranker" s.candidates;
    c "pt_ranker_noise_discarded_total" "RECEIVEs discarded as noise" s.noise_discarded;
    c "pt_ranker_promotions_total" "Concurrency-disturbance head swaps" s.promotions;
    c "pt_ranker_forced_fetches_total" "Window extensions for deferred noise checks"
      s.forced_fetches;
    c "pt_ranker_forced_discards_total" "Discards of receives with unpromotable buffered sends"
      s.forced_discards;
    c "pt_ranker_resorted_total" "Late records re-sorted into place within the skew allowance"
      s.resorted;
    c "pt_ranker_stragglers_evicted_total" "Streams marked lagging past the straggler timeout"
      s.stragglers_evicted;
    c "pt_ranker_straggler_resyncs_total" "Lagging streams reintegrated after catching up"
      s.straggler_resyncs;
    c "pt_ranker_backpressure_pops_total" "Oldest-window force-resolutions under max_buffered"
      s.backpressure_pops;
    List.iter
      (fun (reason, n) ->
        R.add
          (R.counter reg ~help:"Out-of-contract records quarantined by the ranker"
             ~labels:[ ("reason", Ranker.reject_reason_to_string reason) ]
             "pt_ranker_quarantined_total")
          n)
      s.quarantined;
    R.set_max
      (R.gauge reg ~help:"High-water mark of buffered activities" "pt_ranker_peak_buffered")
      (float_of_int s.peak_buffered)

  let publish_engine reg (s : Cag_engine.stats) =
    let c name help v = R.add (R.counter reg ~help name) v in
    c "pt_engine_cags_started_total" "CAGs begun (BEGIN correlated)" s.cags_started;
    c "pt_engine_send_merges_total" "SEND syscalls folded into an earlier SEND vertex"
      s.send_merges;
    c "pt_engine_end_merges_total" "END syscalls folded into an earlier END vertex" s.end_merges;
    c "pt_engine_receive_merges_total" "RECEIVE completions folded into an existing vertex"
      s.receive_merges;
    c "pt_engine_partial_receives_total" "RECEIVEs leaving a SEND partly unmatched"
      s.partial_receives;
    c "pt_engine_unmatched_receives_total" "RECEIVEs with no mmap entry" s.unmatched_receives;
    c "pt_engine_thread_reuse_blocked_total" "Context edges suppressed across CAGs"
      s.thread_reuse_blocked;
    c "pt_engine_orphans_total" "Vertices correlated outside any CAG" s.orphans;
    c "pt_engine_crossed_boundaries_total" "RECEIVEs that drained a SEND past its bytes"
      s.crossed_boundaries;
    c "pt_engine_evicted_sends_total"
      "Open-CAG SEND vertices evicted by GC (CAG flagged deformed)" s.evicted_sends;
    R.set (R.gauge reg ~help:"Outstanding SEND vertices in the mmap" "pt_engine_mmap_entries")
      (float_of_int s.mmap_entries);
    R.set
      (R.gauge reg ~help:"Vertices of unfinished CAGs plus orphans" "pt_engine_live_vertices")
      (float_of_int s.live_vertices);
    R.set_max
      (R.gauge reg ~help:"High-water mark of live vertices" "pt_engine_peak_live_vertices")
      (float_of_int s.peak_live_vertices)

  let close s =
    if not s.closed then begin
      s.closed <- true;
      let reg = s.telemetry in
      let e = Cag_engine.stats s.engine in
      publish_ranker reg (Ranker.stats s.ranker);
      publish_engine reg e;
      let paths state n =
        R.add
          (R.counter reg ~help:"Causal paths produced" ~labels:[ ("state", state) ]
             "pt_correlator_paths_total")
          n
      in
      paths "finished" e.cags_finished;
      paths "deformed" (e.cags_started - e.cags_finished);
      let occupancy =
        R.histogram reg
          ~help:"Ranker window occupancy (buffered activities), sampled per candidate"
          "pt_correlator_window_occupancy"
      in
      Array.iteri (fun b n -> Telemetry.Histogram.observe_n occupancy (float_of_int b) n) s.occupancy;
      R.set_max
        (R.gauge reg ~help:"Peak simultaneously-held records (Fig. 11 memory proxy)"
           "pt_correlator_peak_memory_records")
        (float_of_int s.peak)
    end
end

let correlate_rows ?(telemetry = R.default) ?started ?(on_path = ignore) (cfg : config) arenas =
  let t0 = match started with Some t -> t | None -> Unix.gettimeofday () in
  R.add
    (R.counter telemetry ~help:"Activities entering the correlator after transform"
       "pt_correlator_activities_total")
    (Trace.Arena.total arenas);
  let s =
    Session.create ~telemetry ~on_path:(fun _ cag -> on_path cag) cfg (fun ~has_mmap_send ->
        Ranker.create_native ~window:cfg.window ~skew_allowance:cfg.skew_allowance
          ~ablation:cfg.ablation ~has_mmap_send arenas)
  in
  R.time telemetry ~labels:[ ("stage", "rank_correlate") ] "pt_correlator_stage_seconds"
    (fun () -> Session.run s);
  let correlation_time = Unix.gettimeofday () -. t0 in
  Session.close s;
  {
    cags = Cag_engine.finished s.engine;
    deformed = Cag_engine.unfinished s.engine;
    ranker_stats = Ranker.stats s.ranker;
    engine_stats = Cag_engine.stats s.engine;
    correlation_time;
    peak_memory_proxy = s.peak;
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
