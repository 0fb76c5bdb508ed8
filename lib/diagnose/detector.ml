module Cag = Core.Cag
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Analysis = Core.Analysis
module Json = Core.Json
module Sim_time = Simnet.Sim_time
module Registry = Telemetry.Registry

type kind =
  | Share_drift
  | Pattern_new
  | Pattern_vanished
  | Pattern_shift
  | Latency_shift
  | Throughput_drop

let kind_to_string = function
  | Share_drift -> "share_drift"
  | Pattern_new -> "pattern_new"
  | Pattern_vanished -> "pattern_vanished"
  | Pattern_shift -> "pattern_shift"
  | Latency_shift -> "latency_shift"
  | Throughput_drop -> "throughput_drop"

type verdict = {
  at : Sim_time.t;
  kind : kind;
  pattern : string option;
  culprit : Analysis.subject option;
  baseline_value : float;
  observed_value : float;
  reason : string;
  paths_seen : int;
}

let pp_verdict ppf v =
  Format.fprintf ppf "[%8.3fs] %-16s %s" (Sim_time.to_float_s v.at)
    (kind_to_string v.kind) v.reason

let verdict_to_json v =
  Json.Obj
    [
      ("at_s", Json.Float (Sim_time.to_float_s v.at));
      ("kind", Json.String (kind_to_string v.kind));
      ( "pattern",
        match v.pattern with Some p -> Json.String p | None -> Json.Null );
      ( "culprit",
        match v.culprit with
        | Some s -> Json.String (Analysis.subject_label s)
        | None -> Json.Null );
      ("baseline_value", Json.Float v.baseline_value);
      ("observed_value", Json.Float v.observed_value);
      ("reason", Json.String v.reason);
      ("paths_seen", Json.Int v.paths_seen);
    ]

type config = {
  warmup_paths : int;
  freeze_after : Sim_time.t option;
  window : int;
  min_window : int;
  share_threshold : float;
  mix_window : int;
  mix_tolerance : float;
  mix_min_frequency : float;
  throughput_window_s : float;
}

let default_config =
  {
    warmup_paths = 400;
    freeze_after = None;
    window = 80;
    min_window = 40;
    share_threshold = 0.10;
    mix_window = 200;
    mix_tolerance = 0.15;
    mix_min_frequency = 0.05;
    throughput_window_s = 5.0;
  }

(* An alarm re-arms once its signal falls below its firing threshold
   times this (rises above it divided by this, for a throughput drop). *)
let rearm_factor = 0.5

(* A pattern's window-mean latency over its baseline mean that fires
   [Latency_shift]. *)
let latency_factor = 2.5

(* The live path rate below baseline / this fires [Throughput_drop]. *)
let throughput_factor = 3.0

(* What an alarm watches: its kind, the pattern's signature and the §5.4
   subject, [""] where one does not apply. Never the culprit a verdict
   names: a latency shift names the pattern's current top suspect, which
   moves during one excursion. *)
type alarm = { kind : kind; signature : string; subject : string }

type t = {
  config : config;
  telemetry : Registry.t;
  now : (unit -> Sim_time.t) option;
  learner : Baseline.builder;
  mutable bl : Baseline.t option;
  mutable frozen_at_s : float;
  windows : (string, Pattern.t Queue.t) Hashtbl.t;
      (* Per signature, its most recent paths as one-member patterns. *)
  mix_ring : string Queue.t;  (* The last [mix_window] paths' signatures. *)
  mix_counts : (string, int) Hashtbl.t;  (* Per signature in [mix_ring]. *)
  tp_times : float Queue.t;
  tripped : (alarm, unit) Hashtbl.t;
  mutable verdicts_rev : verdict list;
  mutable n_paths : int;
  c_paths : Registry.counter;
  c_windows : Registry.counter;
  g_baseline_patterns : Registry.gauge;
}

let create ?(config = default_config) ?baseline ?now
    ?(telemetry = Registry.default) () =
  let t =
    {
      config;
      telemetry;
      now;
      learner = Baseline.builder ~capacity:config.warmup_paths ();
      bl = None;
      frozen_at_s = neg_infinity;
      windows = Hashtbl.create 8;
      mix_ring = Queue.create ();
      mix_counts = Hashtbl.create 8;
      tp_times = Queue.create ();
      tripped = Hashtbl.create 16;
      verdicts_rev = [];
      n_paths = 0;
      c_paths =
        Registry.counter telemetry
          ~help:"Finished paths consumed by the streaming detector"
          "pt_diagnose_paths_total";
      c_windows =
        Registry.counter telemetry
          ~help:"Full per-pattern windows judged against the baseline"
          "pt_diagnose_windows_total";
      g_baseline_patterns =
        Registry.gauge telemetry
          ~help:"Patterns in the baseline the detector is armed with"
          "pt_diagnose_baseline_patterns";
    }
  in
  (match baseline with
  | Some bl ->
      t.bl <- Some bl;
      Registry.set t.g_baseline_patterns
        (float_of_int (List.length bl.Baseline.profiles))
  | None -> ());
  t

let warmed t = Option.is_some t.bl
let baseline t = t.bl
let verdicts t = List.rev t.verdicts_rev
let paths_seen t = t.n_paths

let fire t alarm ~at ?pattern ?culprit ~baseline_value ~observed_value reason =
  let v =
    {
      at;
      kind = alarm.kind;
      pattern;
      culprit;
      baseline_value;
      observed_value;
      reason;
      paths_seen = t.n_paths;
    }
  in
  t.verdicts_rev <- v :: t.verdicts_rev;
  let comp =
    match culprit with Some s -> Analysis.subject_label s | None -> "none"
  in
  Registry.incr
    (Registry.counter t.telemetry
       ~help:"Detector verdicts fired, by kind, culprit and pattern"
       ~labels:
         [
           ("comp", comp);
           ("kind", kind_to_string alarm.kind);
           ("pattern", Option.value pattern ~default:"all");
         ]
       "pt_diagnose_alerts_total");
  v

(* The one hysteresis rule: an alarm fires once when [fires] holds, its
   verdict made by [verdict] from [fire], then stays quiet until [rearms]
   holds. *)
let trip t alarm ~fires ~rearms verdict =
  if Hashtbl.mem t.tripped alarm then begin
    if rearms then Hashtbl.remove t.tripped alarm;
    []
  end
  else if fires then begin
    Hashtbl.replace t.tripped alarm ();
    [ verdict (fire t alarm) ]
  end
  else []

(* ---- warmup ---- *)

let freeze_now t at =
  let bl = Baseline.freeze t.learner in
  t.bl <- Some bl;
  t.frozen_at_s <- Sim_time.to_float_s at;
  Registry.set t.g_baseline_patterns
    (float_of_int (List.length bl.Baseline.profiles))

let learn_path t at cag =
  Baseline.learn t.learner cag;
  match t.config.freeze_after with
  | None ->
      if Baseline.seen t.learner >= t.config.warmup_paths then freeze_now t at
  | Some ft ->
      if
        Sim_time.compare at ft >= 0
        && Baseline.seen t.learner >= t.config.min_window
      then freeze_now t at

(* ---- judged stream ---- *)

(* Share drift: compare the profile of the pattern's window against its
   baseline profile and let the §5.4 rules name the culprit; each subject
   is its own alarm. Returns the fired verdicts plus the top live suspect
   (for latency-shift attribution). *)
let check_share t at ~(baseline : Analysis.profile) ~(observed : Analysis.profile) =
  let threshold = t.config.share_threshold and name = observed.name in
  let report =
    Analysis.compare_profiles ~baseline:(Analysis.shares baseline)
      ~observed:(Analysis.shares observed)
  in
  let suspects = report.Analysis.suspects in
  let subject (s : Analysis.suspect) = Analysis.subject_label s.subject in
  let fired =
    List.concat_map
      (fun (s : Analysis.suspect) ->
        let label = subject s in
        trip t
          { kind = Share_drift; signature = observed.signature; subject = label }
          ~fires:(s.severity >= threshold)
          ~rearms:(s.severity < threshold *. rearm_factor)
          (fun fire ->
            fire ~at ~pattern:name ~culprit:s.subject ~baseline_value:0.0
              ~observed_value:s.severity
              (Printf.sprintf "pattern %s: %s (severity %.2f) — %s" name label
                 s.severity s.reason)))
      suspects
  in
  (* Subjects that dropped out of the suspect list entirely have
     recovered: re-arm them. *)
  Hashtbl.filter_map_inplace
    (fun a () ->
      if
        a.kind = Share_drift
        && String.equal a.signature observed.signature
        && not (List.exists (fun s -> String.equal (subject s) a.subject) suspects)
      then None
      else Some ())
    t.tripped;
  let top = match suspects with s :: _ -> Some s.Analysis.subject | [] -> None in
  (fired, top)

let check_latency t at ~(baseline : Analysis.profile) ~(observed : Analysis.profile)
    ~top_suspect =
  if baseline.mean_total_s <= 0.0 then []
  else
    let ratio = observed.mean_total_s /. baseline.mean_total_s in
    trip t
      { kind = Latency_shift; signature = observed.signature; subject = "" }
      ~fires:(ratio >= latency_factor)
      ~rearms:(ratio < latency_factor *. rearm_factor)
      (fun fire ->
        fire ~at ~pattern:observed.name ?culprit:top_suspect
          ~baseline_value:baseline.mean_total_s ~observed_value:observed.mean_total_s
          (Printf.sprintf "pattern %s: mean latency %.1fms vs baseline %.1fms (x%.1f)"
             observed.name
             (1000.0 *. observed.mean_total_s)
             (1000.0 *. baseline.mean_total_s)
             ratio))

(* The window as one pattern named after [p], its newest path: the
   members' span columns side by side, in window order. A signature is
   one shape, so every member has as many critical-path hops as [p]. *)
let window_pattern window (p : Pattern.t) =
  let members = List.of_seq (Queue.to_seq window) in
  let spans =
    Array.init (Array.length p.spans) (fun _ -> Float.Array.create (List.length members))
  in
  List.iteri
    (fun j (m : Pattern.t) ->
      Array.iteri (fun h column -> Float.Array.set spans.(h) j (Float.Array.get column 0)) m.spans)
    members;
  { p with cags = List.concat_map (fun (m : Pattern.t) -> m.cags) members; spans }

(* A pattern is judged once its window holds [min_window] paths and the
   baseline knows it: the window's average causal path against the
   baseline's, on shares and on mean latency. *)
let check_pattern t bl at window (p : Pattern.t) =
  match Baseline.find bl ~signature:p.signature with
  | Some baseline
    when baseline.components <> [] && Queue.length window >= t.config.min_window ->
      Registry.incr t.c_windows;
      let observed = Aggregate.of_pattern (window_pattern window p) in
      let share_verdicts, top_suspect = check_share t at ~baseline ~observed in
      share_verdicts @ check_latency t at ~baseline ~observed ~top_suspect
  | _ -> []

let check_mix t bl at =
  let cfg = t.config in
  if Queue.length t.mix_ring < cfg.mix_window then []
  else begin
    let total = float_of_int (Queue.length t.mix_ring) in
    let freq s =
      float_of_int (Option.value (Hashtbl.find_opt t.mix_counts s) ~default:0) /. total
    in
    (* Baseline patterns: vanished or frequency-shifted. *)
    let from_baseline =
      List.concat_map
        (fun (bp : Analysis.profile) ->
          let bp_frequency = Baseline.frequency bl bp in
          if bp_frequency < cfg.mix_min_frequency then []
          else begin
            let obs = freq bp.signature in
            let alarm kind = { kind; signature = bp.signature; subject = "" } in
            let vanished =
              trip t (alarm Pattern_vanished) ~fires:(obs = 0.0)
                ~rearms:(obs >= cfg.mix_min_frequency *. rearm_factor)
                (fun fire ->
                  fire ~at ~pattern:bp.name ~baseline_value:bp_frequency
                    ~observed_value:0.0
                    (Printf.sprintf "pattern %s vanished (baseline frequency %.0f%%)"
                       bp.name (100.0 *. bp_frequency)))
            in
            if obs = 0.0 then vanished
            else
              let delta = Float.abs (obs -. bp_frequency) in
              trip t (alarm Pattern_shift) ~fires:(delta >= cfg.mix_tolerance)
                ~rearms:(delta < cfg.mix_tolerance *. rearm_factor)
                (fun fire ->
                  fire ~at ~pattern:bp.name ~baseline_value:bp_frequency
                    ~observed_value:obs
                    (Printf.sprintf "pattern %s frequency %.0f%% vs baseline %.0f%%"
                       bp.name (100.0 *. obs) (100.0 *. bp_frequency)))
          end)
        bl.Baseline.profiles
    in
    (* Observed patterns absent from the baseline. [mix_counts] is a hash
       table, so collect the candidate signatures and sort them before
       firing: alerts raised in one tick must come out in a stable order
       (hash order varies across runs and OCaml versions). *)
    let candidates =
      Hashtbl.fold
        (fun signature _ acc ->
          match Baseline.find bl ~signature with
          | Some _ -> acc
          | None -> signature :: acc)
        t.mix_counts []
      |> List.sort String.compare
    in
    let novel =
      List.concat_map
        (fun signature ->
          let obs = freq signature in
          trip t
            { kind = Pattern_new; signature; subject = "" }
            ~fires:(obs >= cfg.mix_min_frequency)
            ~rearms:(obs < cfg.mix_min_frequency *. rearm_factor)
            (fun fire ->
              (* Named as its window's newest path is. *)
              let window = Hashtbl.find t.windows signature in
              let name = (Queue.fold (fun _ p -> p) (Queue.peek window) window).Pattern.name in
              fire ~at ~pattern:name ~baseline_value:0.0 ~observed_value:obs
                (Printf.sprintf "new pattern %s at %.0f%% of traffic (absent from baseline)"
                   name (100.0 *. obs))))
        candidates
    in
    from_baseline @ novel
  end

let check_throughput t bl at time_s =
  let cfg = t.config in
  let base = bl.Baseline.throughput_rps in
  if base <= 0.0 || time_s < t.frozen_at_s +. cfg.throughput_window_s then []
  else begin
    let rate =
      float_of_int (Queue.length t.tp_times) /. cfg.throughput_window_s
    in
    let drop_thr = base /. throughput_factor in
    trip t
      { kind = Throughput_drop; signature = ""; subject = "" }
      ~fires:(rate <= drop_thr)
      ~rearms:(rate >= drop_thr /. rearm_factor)
      (fun fire ->
        fire ~at ~baseline_value:base ~observed_value:rate
          (Printf.sprintf "throughput %.0f paths/s vs baseline %.0f paths/s" rate base))
  end

(* Move a signature's count in the mix ring by [delta]. A signature that
   leaves the ring leaves the table, so it stops being a candidate for
   [Pattern_new] until it is seen again. *)
let count counts signature delta =
  match Option.value (Hashtbl.find_opt counts signature) ~default:0 + delta with
  | 0 -> Hashtbl.remove counts signature
  | n -> Hashtbl.replace counts signature n

let judge t bl at cag =
  let cfg = t.config in
  (* A supplied baseline arms the detector before any stream time has
     passed; anchor the throughput grace window at the first judged
     path instead of the (never set) freeze instant. *)
  if t.frozen_at_s = neg_infinity then t.frozen_at_s <- Sim_time.to_float_s at;
  let p = match Pattern.classify [ cag ] with [ p ] -> p | _ -> assert false in
  Queue.push p.signature t.mix_ring;
  count t.mix_counts p.signature 1;
  if Queue.length t.mix_ring > cfg.mix_window then count t.mix_counts (Queue.pop t.mix_ring) (-1);
  let time_s = Sim_time.to_float_s at in
  Queue.push time_s t.tp_times;
  while
    (not (Queue.is_empty t.tp_times))
    && Queue.peek t.tp_times < time_s -. cfg.throughput_window_s
  do
    ignore (Queue.pop t.tp_times)
  done;
  let window =
    match Hashtbl.find_opt t.windows p.signature with
    | Some w -> w
    | None ->
        let w = Queue.create () in
        Hashtbl.replace t.windows p.signature w;
        w
  in
  Queue.push p window;
  if Queue.length window > cfg.window then ignore (Queue.pop window);
  let pattern_verdicts = check_pattern t bl at window p in
  let mix_verdicts = check_mix t bl at in
  let tp_verdicts = check_throughput t bl at time_s in
  pattern_verdicts @ mix_verdicts @ tp_verdicts

let observe t cag =
  if not (Cag.is_finished cag) then []
  else begin
    let at =
      match t.now with Some f -> f () | None -> Cag.end_ts cag
    in
    t.n_paths <- t.n_paths + 1;
    Registry.incr t.c_paths;
    match t.bl with
    | None ->
        learn_path t at cag;
        []
    | Some bl -> judge t bl at cag
  end
