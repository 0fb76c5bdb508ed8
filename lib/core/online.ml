module Arena = Trace.Arena
module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry
module Session = Correlator.Session

type t = {
  tmemo : Transform.memo;  (* per-id transform decisions *)
  ordinals : (string, int ref) Hashtbl.t;
      (* per traced host: rows delivered so far, filtered ones included —
         the raw row index an offline run over the same logs sees *)
  session : Session.t;
  mutable accepted : int;
  mutable peak_pending : int;
  m_observed : R.counter;
  m_pending : R.gauge;
  m_stragglers : R.gauge;
}

let ranker t = Session.ranker t.session
let engine t = Session.engine t.session
let pending t = t.accepted - Ranker.resolved (ranker t)

let create ~config ~hosts ?straggler_timeout ?max_buffered ?(on_path = fun _ -> ())
    ?(telemetry = R.default) () =
  let m_deformed_paths =
    R.counter telemetry ~help:"Paths completed under degraded conditions and flagged deformed"
      "pt_online_deformed_paths_total"
  in
  let m_lag =
    R.histogram telemetry
      ~help:"Feed-watermark lead over a completing path's END, virtual seconds"
      "pt_online_path_lag_seconds"
  in
  let on_path ranker cag =
    (* A path completing while some stream is evicted as a straggler may
       be missing that stream's activities: flag it deformed so consumers
       can weigh it. *)
    if Ranker.stragglers_active ranker > 0 || Cag.is_deformed cag then begin
      Cag.Builder.mark_deformed cag;
      R.incr m_deformed_paths
    end;
    (* Completion lag: how far the feed watermark has run past the path's
       END when the path pops out — the "bounded lag" the online mode
       promises. *)
    let lag = Sim_time.span_to_float_s (Sim_time.diff (Ranker.watermark ranker) (Cag.end_ts cag)) in
    Telemetry.Histogram.observe m_lag (Float.max 0.0 lag);
    on_path cag
  in
  {
    tmemo = Transform.memo config.Correlator.transform;
    ordinals = Hashtbl.of_seq (List.to_seq (List.map (fun h -> (h, ref 0)) hosts));
    session =
      Session.create ~telemetry ~on_path config (fun ~has_mmap_send ->
          Ranker.create_online ~window:config.Correlator.window
            ~skew_allowance:config.Correlator.skew_allowance
            ~ablation:config.Correlator.ablation ?straggler_timeout ?max_buffered ~has_mmap_send
            ~hosts ());
    accepted = 0;
    peak_pending = 0;
    m_observed =
      R.counter telemetry ~help:"Activities accepted by the online correlator"
        "pt_online_observed_total";
    m_pending =
      R.gauge telemetry ~help:"Activities accepted but not yet resolved" "pt_online_pending";
    m_stragglers =
      R.gauge telemetry ~help:"Streams currently evicted as stragglers"
        "pt_online_stragglers_active";
  }

(* Commit what the ranker can decide, then refresh the live gauges. *)
let advance t =
  Session.run t.session;
  R.set t.m_stragglers (float_of_int (Ranker.stragglers_active (ranker t)));
  R.set t.m_pending (float_of_int (pending t))

let accept t n =
  t.accepted <- t.accepted + n;
  R.add t.m_observed n

let note_peak t = t.peak_pending <- Int.max t.peak_pending (pending t)

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

(* Feed row [i] of [arena], the [origin]th row its host delivered: 1 if
   the ranker accepted it, 0 if the transform filtered it or the ranker
   quarantined it (counted by the ranker, never raised — not even after
   [finish] or on garbage input — and kept in its inspection ring). *)
let[@inline] feed_row t arena i ~origin =
  let k = Transform.classify_row t.tmemo arena i in
  if k < 0 then 0
  else
    match
      Ranker.feed_row (ranker t) ~kind:k ~ts:(Arena.ts arena i) ~ctx:(Arena.ctx_id arena i)
        ~flow:(Arena.flow_id arena i) ~size:(Arena.size arena i) ~origin
    with
    | Ranker.Quarantined _ -> 0
    | Ranker.Accepted | Ranker.Resorted -> 1

(* A delivered arena is the unit of progress: feed all its rows, then
   drain once. Draining after every row would rerun the ranker's blocked
   head pass once per row while it waits on another host's feed. *)
let observe_arena t arena =
  (* One claim per arena: its rows are its host's next rows. *)
  let first = claim (ordinals t arena) (Arena.length arena) in
  let n = ref 0 in
  for i = 0 to Arena.length arena - 1 do
    n := !n + feed_row t arena i ~origin:(if first < 0 then -1 else first + i)
  done;
  if !n > 0 then begin
    accept t !n;
    note_peak t;
    advance t
  end

(* A record-at-a-time feed: drain after every accepted row. *)
let replay t arenas =
  let arenas = Array.of_list arenas in
  let counters = Array.map (ordinals t) arenas in
  Arena.iter_merged arenas (fun h i ->
      if feed_row t arenas.(h) i ~origin:(claim counters.(h) 1) > 0 then begin
        accept t 1;
        advance t;
        note_peak t
      end)

let finish t =
  Ranker.close_input (ranker t);
  advance t;
  Session.close t.session

let paths t = Cag_engine.finished (engine t)
let deformed t = Cag_engine.unfinished (engine t)
let ranker_stats t = Ranker.stats (ranker t)
let engine_stats t = Cag_engine.stats (engine t)
let quarantine_log t = Ranker.quarantine_log (ranker t)
let peak_pending t = t.peak_pending
