(* The traced pass: every layer of the pipeline over one workload's input,
   each call timed from the outside. Every workload runs every chain —
   offline, live (closed loop, then one open-loop replay), capture and a
   cold bundle read — so each reports the same per-layer metrics. The
   workload's own job supplies the GC counts, its traced wall time (the
   caller sets it against the untraced reps), and the coverage: the share
   of the job's wall time its layer calls account for. *)

open Ledger

type metrics = (string * float * string) list

let per n x = if n > 0 then x /. float_of_int n else 0.0
let rate n secs = if secs > 0.0 then float_of_int n /. secs else 0.0
let percentile l p = Core.Aggregate.percentile (Core.Aggregate.sorted_finite l) p
let count x = float_of_int x

(* The loop of [Correlator.correlate_prepared], recomposed so the ranker
   and the engine are timed apart; its output must equal the untraced
   job's exactly. *)
let correlate config prepared ~ranker ~engine_acc =
  let engine = Core.Cag_engine.create () in
  let rk =
    Spans.measure ranker
      (fun () ->
        Core.Ranker.create ~window:config.Core.Correlator.window
          ~skew_allowance:config.Core.Correlator.skew_allowance
          ~ablation:config.Core.Correlator.ablation
          ~has_mmap_send:(Core.Cag_engine.has_mmap_send engine)
          prepared)
      ()
  in
  let step = Core.Cag_engine.step engine in
  let steps = ref 0 in
  let rec loop () =
    match Spans.measure ranker Core.Ranker.rank rk with
    | None -> ()
    | Some a ->
        Spans.measure engine_acc step a;
        incr steps;
        if !steps land 0xfff = 0 then begin
          let horizon =
            Sim_time.max Sim_time.zero
              (Sim_time.add a.Trace.Activity.timestamp
                 (Sim_time.span_scale (-2.0) config.Core.Correlator.skew_allowance))
          in
          ignore (Spans.measure engine_acc (fun () -> Core.Cag_engine.gc engine ~older_than:horizon) ())
        end;
        loop ()
  in
  loop ();
  (rk, engine)

(* A chain's output, its layer metrics, and the busy time of its layer
   calls. *)
type 'a chain = { out : 'a; metrics : metrics; covered_s : float }

let offline p ~sp =
  let inp = p.inp in
  let records = inp.meta.Workload.records in
  let stage name f = Spans.with_span sp name (fun () -> Spans.allocated f) in
  let arenas, decode_w = stage "binary_format.decode" (fun () -> decode inp.bytes) in
  let prepared, transform_w =
    stage "transform" (fun () ->
        Arena.to_collection (Core.Transform.apply_native inp.config.Core.Correlator.transform arenas))
  in
  let kept = Trace.Log.total prepared in
  let ranker = Spans.acc () and engine_acc = Spans.acc () in
  let rk, engine =
    Spans.with_span sp "correlate"
      ~args:(fun () ->
        [ ("ranker_ms", ranker.Spans.busy_s *. 1e3); ("engine_ms", engine_acc.Spans.busy_s *. 1e3) ])
      (fun () -> correlate inp.config prepared ~ranker ~engine_acc)
  in
  let out =
    output ~finished:(Core.Cag_engine.finished engine) ~unfinished:(Core.Cag_engine.unfinished engine)
  in
  let patterns, pattern_w = stage "pattern" (fun () -> Core.Pattern.classify out.finished) in
  let (), aggregate_w = stage "aggregate" (fun () -> aggregate patterns) in
  let paths = List.length out.finished in
  let rs = Core.Ranker.stats rk and es = Core.Cag_engine.stats engine in
  let busy = Spans.busy sp in
  {
    out;
    covered_s =
      busy "binary_format.decode" +. busy "transform" +. ranker.Spans.busy_s +. engine_acc.Spans.busy_s
      +. busy "pattern" +. busy "aggregate";
    metrics =
      [
        ("binary_format.busy_s", busy "binary_format.decode", "s");
        ("binary_format.records_per_s", rate records (busy "binary_format.decode"), "records/s");
        ("binary_format.alloc_words_per_record", per records decode_w, "words/record");
        ("transform.busy_s", busy "transform", "s");
        ("transform.alloc_words_per_record", per records transform_w, "words/record");
        ("transform.kept_ratio", per records (count kept), "ratio");
        ("ranker.busy_s", ranker.Spans.busy_s, "s");
        ("ranker.records_per_s", rate kept ranker.Spans.busy_s, "records/s");
        ("ranker.alloc_words_per_record", per kept ranker.Spans.minor_words, "words/record");
        ("ranker.peak_buffered", count rs.Core.Ranker.peak_buffered, "count");
        ("ranker.promotions", count rs.Core.Ranker.promotions, "count");
        ("ranker.noise_discarded", count rs.Core.Ranker.noise_discarded, "count");
        ("ranker.forced_fetches", count rs.Core.Ranker.forced_fetches, "count");
        ("cag_engine.busy_s", engine_acc.Spans.busy_s, "s");
        ("cag_engine.records_per_s", rate kept engine_acc.Spans.busy_s, "records/s");
        ("cag_engine.alloc_words_per_record", per kept engine_acc.Spans.minor_words, "words/record");
        ("cag_engine.peak_live_vertices", count es.Core.Cag_engine.peak_live_vertices, "count");
        ("cag_engine.send_merges", count es.Core.Cag_engine.send_merges, "count");
        ("pattern.busy_s", busy "pattern", "s");
        ("pattern.patterns", count (List.length patterns), "count");
        ("pattern.alloc_words_per_path", per paths pattern_w, "words/path");
        ("aggregate.busy_s", busy "aggregate", "s");
        ("aggregate.alloc_words_per_path", per paths aggregate_w, "words/path");
      ];
  }

let live p feed =
  let inp = p.inp in
  let records = inp.meta.Workload.records in
  let decode_acc = Spans.acc () and online_acc = Spans.acc () in
  let decoders = Array.map (fun _ -> Frame.Decoder.create ()) feed.hosts in
  let online = Core.Online.create ~config:inp.config ~hosts:(Array.to_list feed.hosts) () in
  let observe = Core.Online.observe_arena online in
  let pending_max = ref 0 in
  Array.iter
    (fun fr ->
      let arena = Spans.measure decode_acc (deliver decoders) fr in
      Spans.measure online_acc observe arena;
      pending_max := max !pending_max (Core.Online.pending online))
    feed.frames;
  Spans.measure online_acc Core.Online.finish online;
  let quarantined =
    List.fold_left (fun n (_, c) -> n + c) 0 (Core.Online.ranker_stats online).Core.Ranker.quarantined
  in
  {
    out = online_output online;
    covered_s = decode_acc.Spans.busy_s +. online_acc.Spans.busy_s;
    metrics =
      [
        ("frame.decode_s", decode_acc.Spans.busy_s, "s");
        ("frame.decode_alloc_words_per_record", per records decode_acc.Spans.minor_words, "words/record");
        ("frame.bytes_per_record", per records (count feed.bytes_total), "B/record");
        ("online.busy_s", online_acc.Spans.busy_s, "s");
        ("online.records_per_s", rate records online_acc.Spans.busy_s, "records/s");
        ("online.alloc_words_per_record", per records online_acc.Spans.minor_words, "words/record");
        ("online.pending_max", count !pending_max, "count");
        ("online.quarantined", count quarantined, "count");
      ];
  }

let capture p ~sp =
  let inp = p.inp in
  let records = inp.meta.Workload.records in
  let stage name f = Spans.with_span sp name (fun () -> Spans.allocated f) in
  let wstats, writer_w = stage "writer" (fun () -> write_store inp p.arenas) in
  let summary, pack_w = stage "pack" (fun () -> pack inp) in
  let busy = Spans.busy sp in
  {
    out = ();
    covered_s = busy "writer" +. busy "pack";
    metrics =
      [
        ("writer.busy_s", busy "writer", "s");
        ("writer.records_per_s", rate records (busy "writer"), "records/s");
        ("writer.alloc_words_per_record", per records writer_w, "words/record");
        ( "writer.bytes_per_record",
          per wstats.Store.Writer.records_in (count wstats.Store.Writer.bytes_out),
          "B/record" );
        ("pack.busy_s", busy "pack", "s");
        ("pack.records_per_s", rate records (busy "pack"), "records/s");
        ("pack.alloc_words_per_record", per records pack_w, "words/record");
        ("pack.links", count summary.Bundle.Pack.links, "count");
        ("pack.unresolved_links", count summary.Bundle.Pack.unresolved_links, "count");
        ("bundle_bytes_per_record", per records (count summary.Bundle.Pack.bytes), "B/record");
      ];
  }

(* Replay the frames open loop at [rate] records/s: frame i is due at its
   watermark's position in the trace's span, mapped onto records/rate
   seconds of wall time, and is fed then, or at once if the generator
   runs late. A path's lag is the wall time its [on_path] fires minus the
   due time of the frame that carried its END. *)
let replay config feed ~records ~rate =
  let n = Array.length feed.frames in
  let wm0 = feed.watermarks.(0) and wm1 = feed.watermarks.(n - 1) in
  let length_s = float_of_int records /. rate in
  let due i =
    float_of_int (feed.watermarks.(i) - wm0) /. float_of_int (max 1 (wm1 - wm0)) *. length_s
  in
  let host_index = Hashtbl.create 8 in
  Array.iteri (fun i h -> Hashtbl.replace host_index h i) feed.hosts;
  (* The first frame of the END's host whose watermark reaches the END. *)
  let end_frame c =
    let host = (Core.Cag.root c).Core.Cag.activity.Trace.Activity.context.Trace.Activity.host in
    let frames = feed.host_frames.(Hashtbl.find host_index host) in
    let ts = Sim_time.to_ns (Core.Cag.end_ts c) in
    let lo = ref 0 and hi = ref (Array.length frames - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst frames.(mid) >= ts then hi := mid else lo := mid + 1
    done;
    snd frames.(!lo)
  in
  let start = ref 0.0 in
  let lags = ref [] and late = ref [] in
  let on_path c = lags := (now () -. !start -. due (end_frame c)) :: !lags in
  let before i =
    let wait = !start +. due i -. now () in
    if wait > 0.0 then Unix.sleepf wait;
    late := Float.max 0.0 (now () -. !start -. due i) :: !late
  in
  start := now ();
  let o = live_job ~on_path ~before config feed in
  (o, !lags, !late)

(* [ordered] and [canonical] are the offline reference's digests.
   Returns the per-layer metrics and the traced job's seconds. *)
let run t p ~sp ~ordered:ref_ordered ~canonical:ref_canonical =
  let inp = p.inp in
  let same what o = check t what (String.equal (canonical o) ref_canonical) in
  (* Runs one chain as a job span from a settled heap, so its GC counts
     repeat; checks and drops its output. *)
  let job name check_out f =
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let c = Spans.with_span sp name f in
    let g1 = Gc.quick_stat () in
    check_out c.out;
    let collections what n0 n1 = ("gc." ^ what, float_of_int (n1 - n0), "count") in
    ( c.metrics,
      c.covered_s,
      Spans.busy sp name,
      [
        collections "minor_collections" g0.Gc.minor_collections g1.Gc.minor_collections;
        collections "major_collections" g0.Gc.major_collections g1.Gc.major_collections;
      ] )
  in
  let off =
    job "job.offline"
      (fun o -> check t "traced offline" (String.equal (ordered o) ref_ordered))
      (fun () -> offline p ~sp)
  in
  let feed = Spans.with_span sp "frame.encode" (fun () -> cut_frames p.arenas) in
  let liv = job "job.live" (same "traced online") (fun () -> live p feed) in
  let replayed, lags, late =
    Spans.with_span sp "replay" (fun () ->
        replay inp.config feed ~records:inp.meta.Workload.records ~rate:100_000.0)
  in
  same "open-loop replay" replayed;
  (* The capture chain's output is the bundle, checked after the read. *)
  let cap = job "job.capture" ignore (fun () -> capture p ~sp) in
  let r, rt = Spans.with_span sp "bundle.read" (fun () -> bundle_read inp p.window) in
  same "bundle paths" (bundle_output r);
  let _, covered_s, job_s, gc =
    match inp.w.Workload.kind with
    | Workload.Offline -> off
    | Workload.Live -> liv
    | Workload.Capture -> cap
  in
  let chain (m, _, _, _) = m in
  ( chain off
    @ [ ("frame.encode_s", Spans.busy sp "frame.encode", "s") ]
    @ chain liv
    @ [
        ("path_lag_p50_ms", percentile lags 0.5 *. 1e3, "ms");
        ("path_lag_p999_ms", percentile lags 0.999 *. 1e3, "ms");
        ("replay.late_p99_ms", percentile late 0.99 *. 1e3, "ms");
        ("replay.late_max_ms", List.fold_left Float.max 0.0 late *. 1e3, "ms");
      ]
    @ chain cap
    @ [
        ("reader.open_ms", rt.open_s *. 1e3, "ms");
        ("walk.view_ms", rt.walk_s *. 1e3, "ms");
        ("reader.query_ms", rt.query_s *. 1e3, "ms");
        ("bundle_read_ms", (rt.open_s +. rt.walk_s +. rt.query_s) *. 1e3, "ms");
      ]
    @ gc
    @ [ ("trace.coverage", covered_s /. job_s, "ratio") ],
    job_s )
