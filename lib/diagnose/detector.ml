module Cag = Core.Cag
module Pattern = Core.Pattern
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

(* Hysteresis: an alarm re-arms once its signal falls below its firing
   threshold times this. *)
let rearm_factor = 0.5

(* A pattern's window-mean latency over its baseline mean that fires
   [Latency_shift]. *)
let latency_factor = 2.5

(* The live path rate below baseline / this fires [Throughput_drop]. *)
let throughput_factor = 3.0

(* Per-pattern sliding state: the pattern's most recent paths plus the
   hysteresis flags for each §5.4 subject this pattern has implicated. *)
type pstate = {
  p_window : Cag.t Queue.t;
  p_share_armed : (string, bool ref) Hashtbl.t;
  mutable p_latency_armed : bool;
}

type mix_flags = {
  mutable m_new_armed : bool;
  mutable m_vanish_armed : bool;
  mutable m_shift_armed : bool;
}

type t = {
  config : config;
  telemetry : Registry.t;
  now : (unit -> Sim_time.t) option;
  learner : Baseline.builder;
  mutable bl : Baseline.t option;
  mutable frozen_at_s : float;
  patterns : (string, pstate) Hashtbl.t;
  mix_ring : string Queue.t;
  names : (string, string) Hashtbl.t;
  mix_flags : (string, mix_flags) Hashtbl.t;
  tp_times : float Queue.t;
  mutable drop_armed : bool;
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
      patterns = Hashtbl.create 8;
      mix_ring = Queue.create ();
      names = Hashtbl.create 8;
      mix_flags = Hashtbl.create 8;
      tp_times = Queue.create ();
      drop_armed = true;
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

let fire t ~at ~kind ?pattern ?culprit ~baseline_value ~observed_value reason =
  let v =
    {
      at;
      kind;
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
           ("kind", kind_to_string kind);
           ("pattern", Option.value pattern ~default:"all");
         ]
       "pt_diagnose_alerts_total");
  v

let ring_push q cap v =
  Queue.push v q;
  if Queue.length q > cap then ignore (Queue.pop q)

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

let pstate_for t signature =
  match Hashtbl.find_opt t.patterns signature with
  | Some ps -> ps
  | None ->
      let ps =
        {
          p_window = Queue.create ();
          p_share_armed = Hashtbl.create 8;
          p_latency_armed = true;
        }
      in
      Hashtbl.replace t.patterns signature ps;
      ps

let mix_flags_for t signature =
  match Hashtbl.find_opt t.mix_flags signature with
  | Some f -> f
  | None ->
      let f = { m_new_armed = true; m_vanish_armed = true; m_shift_armed = true } in
      Hashtbl.replace t.mix_flags signature f;
      f

(* Share drift: compare the profile of the pattern's window against its
   baseline profile and let the §5.4 rules name the culprit. Each subject
   fires once per excursion, re-arming when its severity recedes below
   [share_threshold * rearm_factor]. Returns the fired verdicts plus the
   top live suspect (for latency-shift attribution). *)
let check_share t at ~name ps ~(baseline : Analysis.profile)
    ~(observed : Analysis.profile) =
  let cfg = t.config in
  let report =
    Analysis.compare_profiles ~baseline:(Analysis.shares baseline)
      ~observed:(Analysis.shares observed)
  in
  let live = Hashtbl.create 8 in
  let fired =
    List.filter_map
      (fun (s : Analysis.suspect) ->
        let label = Analysis.subject_label s.subject in
        Hashtbl.replace live label s.severity;
        let armed =
          match Hashtbl.find_opt ps.p_share_armed label with
          | Some r -> r
          | None ->
              let r = ref true in
              Hashtbl.replace ps.p_share_armed label r;
              r
        in
        if s.severity >= cfg.share_threshold && !armed then begin
          armed := false;
          Some
            (fire t ~at ~kind:Share_drift ~pattern:name
               ~culprit:s.subject ~baseline_value:0.0
               ~observed_value:s.severity
               (Printf.sprintf "pattern %s: %s (severity %.2f) — %s" name
                  label s.severity s.reason))
        end
        else begin
          if
            s.severity < cfg.share_threshold *. rearm_factor
            && not !armed
          then armed := true;
          None
        end)
      report.Analysis.suspects
  in
  (* Subjects that dropped out of the suspect list entirely have
     recovered: re-arm them. *)
  Hashtbl.iter
    (fun label armed ->
      if (not !armed) && not (Hashtbl.mem live label) then armed := true)
    ps.p_share_armed;
  let top =
    match report.Analysis.suspects with
    | s :: _ -> Some s.Analysis.subject
    | [] -> None
  in
  (fired, top)

let check_latency t at ~name ps ~(baseline : Analysis.profile)
    ~(observed : Analysis.profile) ~top_suspect =
  if baseline.mean_total_s <= 0.0 then []
  else
    let ratio = observed.mean_total_s /. baseline.mean_total_s in
    if ratio >= latency_factor && ps.p_latency_armed then begin
      ps.p_latency_armed <- false;
      [
        fire t ~at ~kind:Latency_shift ~pattern:name ?culprit:top_suspect
          ~baseline_value:baseline.mean_total_s ~observed_value:observed.mean_total_s
          (Printf.sprintf
             "pattern %s: mean latency %.1fms vs baseline %.1fms (x%.1f)"
             name (1000.0 *. observed.mean_total_s)
             (1000.0 *. baseline.mean_total_s)
             ratio);
      ]
    end
    else begin
      if
        ratio < latency_factor *. rearm_factor
        && not ps.p_latency_armed
      then ps.p_latency_armed <- true;
      []
    end

(* A pattern is judged once its window holds [min_window] paths and the
   baseline knows it: the window's average causal path against the
   baseline's, on shares and on mean latency. *)
let check_pattern t bl at ~signature ~name ps =
  match Baseline.find bl ~signature with
  | Some baseline
    when baseline.components <> [] && Queue.length ps.p_window >= t.config.min_window -> (
      match Analysis.profiles_of_cags (List.of_seq (Queue.to_seq ps.p_window)) with
      | observed :: _ ->
          Registry.incr t.c_windows;
          let share_verdicts, top_suspect = check_share t at ~name ps ~baseline ~observed in
          share_verdicts @ check_latency t at ~name ps ~baseline ~observed ~top_suspect
      | [] -> [])
  | _ -> []

let check_mix t bl at =
  let cfg = t.config in
  if Queue.length t.mix_ring < cfg.mix_window then []
  else begin
    let total = float_of_int (Queue.length t.mix_ring) in
    let freqs = Hashtbl.create 8 in
    Queue.iter
      (fun s ->
        Hashtbl.replace freqs s
          (1 + Option.value (Hashtbl.find_opt freqs s) ~default:0))
      t.mix_ring;
    let freq s =
      float_of_int (Option.value (Hashtbl.find_opt freqs s) ~default:0) /. total
    in
    let name_of s = Option.value (Hashtbl.find_opt t.names s) ~default:s in
    (* Baseline patterns: vanished or frequency-shifted. *)
    let from_baseline =
      List.concat_map
        (fun (bp : Analysis.profile) ->
          let bp_frequency = Baseline.frequency bl bp in
          if bp_frequency < cfg.mix_min_frequency then []
          else begin
            let obs = freq bp.signature in
            let flags = mix_flags_for t bp.signature in
            if obs = 0.0 then
              if flags.m_vanish_armed then begin
                flags.m_vanish_armed <- false;
                [
                  fire t ~at ~kind:Pattern_vanished ~pattern:bp.name
                    ~baseline_value:bp_frequency ~observed_value:0.0
                    (Printf.sprintf
                       "pattern %s vanished (baseline frequency %.0f%%)" bp.name
                       (100.0 *. bp_frequency));
                ]
              end
              else []
            else begin
              if
                obs >= cfg.mix_min_frequency *. rearm_factor
                && not flags.m_vanish_armed
              then flags.m_vanish_armed <- true;
              let delta = Float.abs (obs -. bp_frequency) in
              if delta >= cfg.mix_tolerance && flags.m_shift_armed then begin
                flags.m_shift_armed <- false;
                [
                  fire t ~at ~kind:Pattern_shift ~pattern:bp.name
                    ~baseline_value:bp_frequency ~observed_value:obs
                    (Printf.sprintf
                       "pattern %s frequency %.0f%% vs baseline %.0f%%" bp.name
                       (100.0 *. obs) (100.0 *. bp_frequency));
                ]
              end
              else begin
                if
                  delta < cfg.mix_tolerance *. rearm_factor
                  && not flags.m_shift_armed
                then flags.m_shift_armed <- true;
                []
              end
            end
          end)
        bl.Baseline.profiles
    in
    (* Observed patterns absent from the baseline.  [freqs] is a hash
       table, so collect the candidate signatures and sort them before
       firing: alerts raised in one tick must come out in a stable order
       (hash order varies across runs and OCaml versions). *)
    let candidates =
      Hashtbl.fold
        (fun signature _ acc ->
          match Baseline.find bl ~signature with
          | Some _ -> acc
          | None -> signature :: acc)
        freqs []
      |> List.sort String.compare
    in
    let novel =
      List.filter_map
        (fun signature ->
          let obs = freq signature in
          let flags = mix_flags_for t signature in
          if obs >= cfg.mix_min_frequency && flags.m_new_armed then begin
            flags.m_new_armed <- false;
            Some
              (fire t ~at ~kind:Pattern_new ~pattern:(name_of signature)
                 ~baseline_value:0.0 ~observed_value:obs
                 (Printf.sprintf
                    "new pattern %s at %.0f%% of traffic (absent from baseline)"
                    (name_of signature) (100.0 *. obs)))
          end
          else begin
            if
              obs < cfg.mix_min_frequency *. rearm_factor
              && not flags.m_new_armed
            then flags.m_new_armed <- true;
            None
          end)
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
    if rate <= drop_thr && t.drop_armed then begin
      t.drop_armed <- false;
      [
        fire t ~at ~kind:Throughput_drop ~baseline_value:base ~observed_value:rate
          (Printf.sprintf "throughput %.0f paths/s vs baseline %.0f paths/s" rate base);
      ]
    end
    else begin
      if rate >= drop_thr /. rearm_factor && not t.drop_armed then t.drop_armed <- true;
      []
    end
  end

let judge t bl at cag =
  let cfg = t.config in
  (* A supplied baseline arms the detector before any stream time has
     passed; anchor the throughput grace window at the first judged
     path instead of the (never set) freeze instant. *)
  if t.frozen_at_s = neg_infinity then t.frozen_at_s <- Sim_time.to_float_s at;
  let signature = Pattern.signature_of cag in
  let name = Pattern.name_of cag in
  Hashtbl.replace t.names signature name;
  ring_push t.mix_ring cfg.mix_window signature;
  let time_s = Sim_time.to_float_s at in
  Queue.push time_s t.tp_times;
  while
    (not (Queue.is_empty t.tp_times))
    && Queue.peek t.tp_times < time_s -. cfg.throughput_window_s
  do
    ignore (Queue.pop t.tp_times)
  done;
  let ps = pstate_for t signature in
  ring_push ps.p_window cfg.window cag;
  let pattern_verdicts = check_pattern t bl at ~signature ~name ps in
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
