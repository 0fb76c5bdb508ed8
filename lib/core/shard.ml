module Activity = Trace.Activity
module Arena = Trace.Arena
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time
module Pool = Parallel.Pool
module R = Telemetry.Registry

type plan = {
  arenas : Arena.t array;  (* transformed, in log order, one per host *)
  epochs : (int * int) array;  (* chosen [lo, hi) ranges over the merged feed *)
  starts : int array array;
      (* [starts.(k).(h)]: host [h]'s first row in epoch [k]; one extra
         entry closes the last epoch *)
  cut_candidates : int;
}

let epoch_ranges p = p.epochs
let cut_candidates p = p.cut_candidates

let begin_code = Activity.kind_to_code Activity.Begin
let send_code = Activity.kind_to_code Activity.Send
let end_code = Activity.kind_to_code Activity.End_

(* One sweep over the time-merged feed of the host arenas
   ({!Arena.iter_merged}, the order {!Online.replay} feeds). The merge
   keeps each host's order, so a feed range [lo, hi) is one contiguous
   row range per host, and an epoch is stored as each host's first row.

   A boundary before feed row [i] is a valid cut when no request is open,
   every flow is byte-balanced (every SEND chunk fully received — which
   also brackets skew-displaced activities), and the gap from row [i - 1]
   is at least [margin].

   "No request open" tracks the set of open entry flows, not a BEGIN/END
   count: a chunked response emits one BEGIN but several END activities
   (the engine folds trailing chunks into the END vertex), so a counter
   would drift negative and block every later cut. A flow opens at its
   BEGIN and closes at its first END; trailing END chunks are no-ops.
   Closing at the first chunk is safe because a cut also needs a
   [margin]-wide silent gap, and the chunks of one response sit closer
   together than the correlation window the margin is — the same
   temporal-proximity assumption the sliding-window ranker itself makes.
   A flow whose END is lost (probe death) stays open forever and blocks
   all later cuts: degraded feeds shard less instead of sharding wrong.

   Candidate cuts are coalesced greedily into epochs of at least
   [n / (4 * jobs)] rows, so tiny epochs do not drown the win in
   per-epoch ranker/engine setup. *)
let make_plan ~margin ~jobs arenas =
  let arenas = Array.of_list arenas in
  let hosts = Array.length arenas in
  let n = Array.fold_left (fun acc a -> acc + Arena.length a) 0 arenas in
  let chunk = max 1 (n / max 1 (4 * jobs)) in
  (* [pos.(h)]: host [h]'s rows swept so far, its next row in the feed. *)
  let pos = Array.make hosts 0 in
  (* BEGIN is the client's receive (flow client->entry), END the reply
     send (flow entry->client): END looks up the reversed flow, so both
     key on the (client, entry) orientation. *)
  let open_entry = Intern.Table.create 64 in
  let balances = Intern.Table.create 1024 in
  let unbalanced = ref 0 in
  let adjust flow delta =
    let cur = Option.value ~default:0 (Intern.Table.find_opt balances flow) in
    let next = cur + delta in
    if cur = 0 && next <> 0 then incr unbalanced
    else if cur <> 0 && next = 0 then decr unbalanced;
    Intern.Table.replace balances flow next
  in
  let margin = Sim_time.span_ns margin in
  let cuts = ref 0 and lo = ref 0 and last_ts = ref 0 and i = ref 0 in
  let epochs = ref [] and starts = ref [ Array.copy pos ] in
  Arena.iter_merged arenas (fun h r ->
      let a = arenas.(h) in
      let ts = Arena.ts a r in
      if
        !i > 0 && Intern.Table.length open_entry = 0 && !unbalanced = 0 && ts - !last_ts >= margin
      then begin
        incr cuts;
        if !i - !lo >= chunk then begin
          epochs := (!lo, !i) :: !epochs;
          starts := Array.copy pos :: !starts;
          lo := !i
        end
      end;
      let flow = Arena.flow_id a r in
      (match Arena.kind_code a r with
      | k when k = begin_code -> Intern.Table.replace open_entry flow ()
      | k when k = end_code -> (
          match Intern.reverse_flow_id flow with
          | Some key -> Intern.Table.remove open_entry key
          | None -> ())
      | k when k = send_code -> adjust flow (Arena.size a r)
      | _ -> adjust flow (-Arena.size a r));
      pos.(h) <- r + 1;
      last_ts := ts;
      incr i);
  {
    arenas;
    epochs = Array.of_list (List.rev ((!lo, n) :: !epochs));
    starts = Array.of_list (List.rev (Array.copy pos :: !starts));
    cut_candidates = !cuts;
  }

let plan ~jobs (cfg : Correlator.config) arenas =
  make_plan ~margin:cfg.Correlator.window ~jobs
    (Transform.apply_native cfg.Correlator.transform arenas)

(* Every epoch keeps the full host list (possibly with empty arenas), so
   ranker stream indexing matches the serial run's, and copies the rows'
   origins, so vertex sources name the same raw rows. *)
let epoch_arenas p k =
  Array.to_list
    (Array.mapi
       (fun h a ->
         let lo = p.starts.(k).(h) and hi = p.starts.(k + 1).(h) in
         let sub =
           Arena.create_sid ~capacity:(max 1 (hi - lo)) ~origins:true (Arena.host_sid a)
         in
         Arena.append_range sub a ~lo ~hi;
         sub)
       p.arenas)

let merge_ranker (a : Ranker.stats) (b : Ranker.stats) : Ranker.stats =
  let merge_quarantined qa qb =
    List.fold_left
      (fun acc (reason, n) ->
        let prev = Option.value ~default:0 (List.assoc_opt reason acc) in
        (reason, prev + n) :: List.remove_assoc reason acc)
      qa qb
  in
  {
    fetched = a.fetched + b.fetched;
    candidates = a.candidates + b.candidates;
    noise_discarded = a.noise_discarded + b.noise_discarded;
    promotions = a.promotions + b.promotions;
    forced_fetches = a.forced_fetches + b.forced_fetches;
    forced_discards = a.forced_discards + b.forced_discards;
    peak_buffered = max a.peak_buffered b.peak_buffered;
    resorted = a.resorted + b.resorted;
    quarantined = merge_quarantined a.quarantined b.quarantined;
    stragglers_evicted = a.stragglers_evicted + b.stragglers_evicted;
    straggler_resyncs = a.straggler_resyncs + b.straggler_resyncs;
    backpressure_pops = a.backpressure_pops + b.backpressure_pops;
  }

let merge_engine (a : Cag_engine.stats) (b : Cag_engine.stats) : Cag_engine.stats =
  {
    cags_started = a.cags_started + b.cags_started;
    cags_finished = a.cags_finished + b.cags_finished;
    send_merges = a.send_merges + b.send_merges;
    end_merges = a.end_merges + b.end_merges;
    receive_merges = a.receive_merges + b.receive_merges;
    partial_receives = a.partial_receives + b.partial_receives;
    unmatched_receives = a.unmatched_receives + b.unmatched_receives;
    thread_reuse_blocked = a.thread_reuse_blocked + b.thread_reuse_blocked;
    orphans = a.orphans + b.orphans;
    crossed_boundaries = a.crossed_boundaries + b.crossed_boundaries;
    mmap_entries = a.mmap_entries + b.mmap_entries;
    live_vertices = a.live_vertices + b.live_vertices;
    peak_live_vertices = max a.peak_live_vertices b.peak_live_vertices;
    evicted_sends = a.evicted_sends + b.evicted_sends;
  }

(* Re-key every epoch's CAG ids by the running [cags_started] offset.
   Serial ids are assigned in BEGIN correlation order, and all of epoch
   k's BEGINs are correlated before any of epoch k+1's, so the re-keyed
   ids equal the serial ones. *)
let merge_results ~started (results : Correlator.result array) : Correlator.result =
  let offset = ref 0 in
  Array.iter
    (fun (r : Correlator.result) ->
      let shift (c : Cag.t) = Cag.Builder.renumber c ~cag_id:(!offset + c.Cag.cag_id) in
      List.iter shift r.Correlator.cags;
      List.iter shift r.Correlator.deformed;
      offset := !offset + r.Correlator.engine_stats.Cag_engine.cags_started)
    results;
  let parts = Array.to_list results in
  let concat f = List.concat_map f parts in
  let fold f init get = List.fold_left (fun acc r -> f acc (get r)) init parts in
  match parts with
  | [] -> invalid_arg "Shard.merge_results: no epochs"
  | first :: rest ->
      {
        Correlator.cags = concat (fun r -> r.Correlator.cags);
        deformed = concat (fun r -> r.Correlator.deformed);
        ranker_stats =
          List.fold_left
            (fun acc r -> merge_ranker acc r.Correlator.ranker_stats)
            first.Correlator.ranker_stats rest;
        engine_stats =
          List.fold_left
            (fun acc r -> merge_engine acc r.Correlator.engine_stats)
            first.Correlator.engine_stats rest;
        correlation_time = Unix.gettimeofday () -. started;
        peak_memory_proxy = fold max 0 (fun r -> r.Correlator.peak_memory_proxy);
      }

(* Transform, plan, correlate each epoch in a worker domain, merge. *)
let correlate_arena ?(telemetry = R.default) ?jobs (cfg : Correlator.config) arenas =
  let jobs = Option.value jobs ~default:(Pool.default_jobs ()) in
  if jobs <= 1 then Correlator.correlate_arena ~telemetry cfg arenas
  else begin
    let started = Unix.gettimeofday () in
    let prepared =
      R.time telemetry ~labels:[ ("stage", "transform") ] "pt_correlator_stage_seconds"
        (fun () -> Transform.apply_native cfg.Correlator.transform arenas)
    in
    let p =
      R.time telemetry ~labels:[ ("stage", "plan") ] "pt_parallel_stage_seconds" (fun () ->
          make_plan ~margin:cfg.Correlator.window ~jobs prepared)
    in
    R.set
      (R.gauge telemetry ~help:"Worker domains of the last sharded correlation"
         "pt_parallel_jobs")
      (float_of_int jobs);
    R.add
      (R.counter telemetry ~help:"Epochs correlated by the sharded correlator"
         "pt_parallel_epochs_total")
      (Array.length p.epochs);
    R.add
      (R.counter telemetry ~help:"Request-quiescent cut points found before coalescing"
         "pt_parallel_cut_points_total")
      p.cut_candidates;
    if Array.length p.epochs <= 1 then
      (* Nothing to shard (one epoch): identical to the serial path. *)
      Correlator.correlate_rows ~telemetry ~started cfg prepared
    else begin
      let epoch_records =
        R.histogram telemetry ~help:"Records per sharded-correlation epoch"
          "pt_parallel_epoch_records"
      in
      let run_epoch k =
        let sub = epoch_arenas p k in
        Telemetry.Histogram.observe epoch_records (float_of_int (Arena.total sub));
        Correlator.correlate_rows ~telemetry cfg sub
      in
      let results =
        R.time telemetry ~labels:[ ("stage", "correlate") ] "pt_parallel_stage_seconds"
          (fun () ->
            Pool.with_pool ~jobs (fun pl -> Pool.map pl ~n:(Array.length p.epochs) run_epoch))
      in
      R.time telemetry ~labels:[ ("stage", "merge") ] "pt_parallel_stage_seconds" (fun () ->
          merge_results ~started results)
    end
  end

(* The digest preimage lives in {!Hierarchy.render} now, shared with the
   hierarchical root's identity check; the bytes are unchanged. Ids are
   digested as stored — for the sharded-vs-serial comparison they must
   match without any canonical re-keying. *)
let digest (result : Correlator.result) =
  Digest.to_hex
    (Digest.string
       (Hierarchy.render ~finished:result.Correlator.cags
          ~deformed:result.Correlator.deformed))
