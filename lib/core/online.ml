module Activity = Trace.Activity
module Arena = Trace.Arena
module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

type t = {
  tmemo : Transform.memo;  (* per-id transform decisions *)
  ordinals : (string, int ref) Hashtbl.t;
      (* per traced host: rows delivered so far, filtered ones included —
         the raw row index an offline run over the same logs sees *)
  ranker : Ranker.t;
  engine : Cag_engine.t;
  telemetry : R.t;
  skew_allowance : Sim_time.span;
  mutable accepted : int;
  mutable resolved : int;
  mutable peak_pending : int;
  mutable watermark : Sim_time.t;  (* latest fed local timestamp, any host *)
  mutable finished : bool;
  mutable seen_evictions : int;  (* ranker counts already mirrored *)
  mutable seen_resyncs : int;
  m_observed : R.counter;
  m_paths : R.counter;
  m_deformed_paths : R.counter;
  m_pending : R.gauge;
  m_lag : Telemetry.Histogram.t;
  m_quarantined : Ranker.reject_reason -> R.counter;
  m_evictions : R.counter;
  m_resyncs : R.counter;
  m_stragglers : R.gauge;
  m_peak_memory : R.gauge;
}

(* Mirror the ranker's straggler counters incrementally (they advance
   inside [Ranker.next], outside our sight) and refresh the live gauges. *)
let sync_degraded t =
  let evicted = Ranker.stragglers_evicted t.ranker in
  if evicted > t.seen_evictions then begin
    R.add t.m_evictions (evicted - t.seen_evictions);
    t.seen_evictions <- evicted
  end;
  let resyncs = Ranker.straggler_resyncs t.ranker in
  if resyncs > t.seen_resyncs then begin
    R.add t.m_resyncs (resyncs - t.seen_resyncs);
    t.seen_resyncs <- resyncs
  end;
  R.set t.m_stragglers (float_of_int (Ranker.stragglers_active t.ranker));
  let held =
    Ranker.held t.ranker + Cag_engine.live_vertices t.engine + Cag_engine.mmap_entries t.engine
  in
  R.set_max t.m_peak_memory (float_of_int held)

let drain t =
  while Ranker.next t.ranker do
    t.resolved <- t.resolved + 1;
    let a = Ranker.candidate t.ranker in
    Cag_engine.step_ids t.engine ~ctx:(Ranker.candidate_ctx t.ranker)
      ~flow:(Ranker.candidate_flow t.ranker)
      ~source:
        (Cag.source ~host:(Ranker.candidate_host t.ranker) ~row:(Ranker.candidate_origin t.ranker))
      a;
    (* Periodically evict unmatched sends that can no longer match,
       with the horizon clamped at the trace origin (matchable SENDs
       at trace start must survive early GC rounds). *)
    if t.resolved land 0xfff = 0 then begin
      let horizon =
        Sim_time.max Sim_time.zero
          (Sim_time.add a.Activity.timestamp (Sim_time.span_scale (-2.0) t.skew_allowance))
      in
      ignore (Cag_engine.gc t.engine ~older_than:horizon)
    end
  done

let pending t = t.accepted - Ranker.resolved t.ranker

let create ~config ~hosts ?straggler_timeout ?max_buffered ?(on_path = fun _ -> ())
    ?(telemetry = R.default) () =
  let holder = ref None in
  let engine =
    Cag_engine.create
      ~on_finished:(fun cag ->
        (match !holder with
        | Some t ->
            R.incr t.m_paths;
            (* A path completing while some stream is evicted as a
               straggler may be missing that stream's activities: flag it
               deformed so consumers can weigh it. *)
            if Ranker.stragglers_active t.ranker > 0 || Cag.is_deformed cag then begin
              Cag.Builder.mark_deformed cag;
              R.incr t.m_deformed_paths
            end;
            (* Completion lag: how far the feed watermark has run past the
               path's END when the path pops out — the "bounded lag" the
               online mode promises. *)
            let lag = Sim_time.span_to_float_s (Sim_time.diff t.watermark (Cag.end_ts cag)) in
            Telemetry.Histogram.observe t.m_lag (Float.max 0.0 lag)
        | None -> ());
        on_path cag)
      ()
  in
  let ranker =
    Ranker.create_online ~window:config.Correlator.window
      ~skew_allowance:config.Correlator.skew_allowance
      ~ablation:config.Correlator.ablation ?straggler_timeout ?max_buffered
      ~has_mmap_send:(Cag_engine.has_mmap_send engine)
      ~hosts ()
  in
  let t =
    {
      tmemo = Transform.memo config.Correlator.transform;
      ordinals = Hashtbl.of_seq (List.to_seq (List.map (fun h -> (h, ref 0)) hosts));
      ranker;
      engine;
      telemetry;
      skew_allowance = config.Correlator.skew_allowance;
      accepted = 0;
      resolved = 0;
      peak_pending = 0;
      watermark = Sim_time.zero;
      finished = false;
      seen_evictions = 0;
      seen_resyncs = 0;
      m_observed =
        R.counter telemetry ~help:"Activities accepted by the online correlator"
          "pt_online_observed_total";
      m_paths =
        R.counter telemetry ~help:"Causal paths completed online" "pt_online_paths_total";
      m_deformed_paths =
        R.counter telemetry
          ~help:"Paths completed under degraded conditions and flagged deformed"
          "pt_online_deformed_paths_total";
      m_pending =
        R.gauge telemetry ~help:"Activities accepted but not yet resolved" "pt_online_pending";
      m_lag =
        R.histogram telemetry
          ~help:"Feed-watermark lead over a completing path's END, virtual seconds"
          "pt_online_path_lag_seconds";
      m_quarantined =
        (fun reason ->
          R.counter telemetry ~help:"Out-of-contract records quarantined instead of raising"
            ~labels:[ ("reason", Ranker.reject_reason_to_string reason) ]
            "pt_online_quarantined_total");
      m_evictions =
        R.counter telemetry ~help:"Streams evicted as stragglers"
          "pt_online_stragglers_evicted_total";
      m_resyncs =
        R.counter telemetry ~help:"Straggler streams reintegrated after catching up"
          "pt_online_straggler_resyncs_total";
      m_stragglers =
        R.gauge telemetry ~help:"Streams currently evicted as stragglers"
          "pt_online_stragglers_active";
      m_peak_memory =
        R.gauge telemetry
          ~help:"Peak simultaneously-held records online (ranker + engine)"
          "pt_online_peak_memory_records";
    }
  in
  holder := Some t;
  (* Pre-register every quarantine reason so the family is exposed (at
     zero) even on clean feeds. *)
  List.iter (fun r -> ignore (t.m_quarantined r : R.counter)) Ranker.all_reject_reasons;
  t

(* Account for one record fed to the ranker, stamped [ts]. *)
let settle t ts = function
  | Ranker.Quarantined reason ->
      (* Never raises — not even after [finish] or on garbage input;
         the record is counted and kept for inspection instead. *)
      R.incr (t.m_quarantined reason)
  | Ranker.Accepted | Ranker.Resorted ->
      t.accepted <- t.accepted + 1;
      R.incr t.m_observed;
      if Sim_time.(ts > t.watermark) then t.watermark <- ts;
      drain t;
      sync_degraded t;
      let p = pending t in
      if p > t.peak_pending then t.peak_pending <- p;
      R.set t.m_pending (float_of_int p)

(* The counter of the rows [arena]'s host has delivered, or [None] for a
   host that is not traced. *)
let ordinals t arena = Hashtbl.find_opt t.ordinals (Arena.hostname arena)

(* Claim the next [n] rows of a counter: the first one's index, or [-1]
   without a counter. *)
let claim counter n =
  match counter with
  | Some next ->
      let first = !next in
      next := first + n;
      first
  | None -> -1

(* Feed row [i] of [arena], the [origin]th row its host delivered. *)
let[@inline] observe_row t arena i ~origin =
  let k = Transform.classify_row t.tmemo arena i in
  if k >= 0 then begin
    let ts = Arena.ts arena i in
    settle t (Sim_time.of_ns ts)
      (Ranker.feed_row t.ranker ~kind:k ~ts ~ctx:(Arena.ctx_id arena i)
         ~flow:(Arena.flow_id arena i) ~size:(Arena.size arena i) ~origin)
  end

let observe_arena t arena =
  (* One claim per arena: its rows are its host's next rows. *)
  let first = claim (ordinals t arena) (Arena.length arena) in
  for i = 0 to Arena.length arena - 1 do
    observe_row t arena i ~origin:(if first < 0 then -1 else first + i)
  done

let replay t arenas =
  let arenas = Array.of_list arenas in
  let counters = Array.map (ordinals t) arenas in
  Arena.iter_merged arenas (fun h i ->
      observe_row t arenas.(h) i ~origin:(claim counters.(h) 1))

let finish t =
  Ranker.close_input t.ranker;
  drain t;
  sync_degraded t;
  R.set t.m_pending (float_of_int (pending t));
  if not t.finished then begin
    t.finished <- true;
    Pipeline_metrics.add_ranker_stats t.telemetry (Ranker.stats t.ranker);
    Pipeline_metrics.add_engine_stats t.telemetry (Cag_engine.stats t.engine)
  end

let paths t = Cag_engine.finished t.engine
let deformed t = Cag_engine.unfinished t.engine
let ranker_stats t = Ranker.stats t.ranker
let engine_stats t = Cag_engine.stats t.engine
let quarantine_log t = Ranker.quarantine_log t.ranker
let stragglers_active t = Ranker.stragglers_active t.ranker
let peak_pending t = t.peak_pending
