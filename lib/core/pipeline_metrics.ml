module R = Telemetry.Registry

let add_ranker_stats reg (s : Ranker.stats) =
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

let add_engine_stats reg (s : Cag_engine.stats) =
  let c name help v = R.add (R.counter reg ~help name) v in
  c "pt_engine_cags_started_total" "CAGs begun (BEGIN correlated)" s.cags_started;
  c "pt_engine_cags_finished_total" "CAGs completed (END correlated)" s.cags_finished;
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
  c "pt_engine_crossed_boundaries_total" "RECEIVEs spanning two logical messages"
    s.crossed_boundaries;
  c "pt_engine_evicted_sends_total" "Open-CAG SEND vertices evicted by GC (CAG flagged deformed)"
    s.evicted_sends;
  R.set (R.gauge reg ~help:"Outstanding SEND vertices in the mmap" "pt_engine_mmap_entries")
    (float_of_int s.mmap_entries);
  R.set
    (R.gauge reg ~help:"Vertices of unfinished CAGs plus orphans" "pt_engine_live_vertices")
    (float_of_int s.live_vertices);
  R.set_max
    (R.gauge reg ~help:"High-water mark of live vertices" "pt_engine_peak_live_vertices")
    (float_of_int s.peak_live_vertices)
