(* Tests for the streaming performance-debugging plane (lib/diagnose):
   baseline learning and JSON round-trip, the streaming detector's alarm
   classes (share drift, pattern mix, latency shift, throughput drop)
   with their hysteresis, the ground-truth scorer, live end-to-end runs
   per fault and control, and MD5 pins of every verdict stream. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Baseline = Diagnose.Baseline
module Detector = Diagnose.Detector
module Verdict = Diagnose.Verdict
module Aggregate = Core.Aggregate
module Analysis = Core.Analysis
module Faults = Tiersim.Faults
module S = Tiersim.Scenario
module ST = Simnet.Sim_time

(* ---- synthetic path streams ---- *)

(* One correlated three-tier request ending at [base + 9ms * stretch].
   [db_extra] lengthens the db tier's internal share (and the total
   duration) by shifting everything at or after the db reply; [stretch]
   scales every offset uniformly, changing the duration but not one
   share point. *)
let mk_cag ?(db_extra = ST.span_zero) ?(stretch = 1) ~base () =
  let w, a, d = H.simple_request ~base:0 () in
  let shift (x : Activity.t) =
    let off = ST.to_ns x.Activity.timestamp * stretch in
    let ts = ST.add (ST.of_ns (base + off)) ST.span_zero in
    let ts =
      if off >= 5_000_000 * stretch then ST.add ts db_extra else ts
    in
    { x with Activity.timestamp = ts }
  in
  let logs =
    [
      Trace.Log.of_list ~hostname:"web" (List.map shift w);
      Trace.Log.of_list ~hostname:"app" (List.map shift a);
      Trace.Log.of_list ~hostname:"db" (List.map shift d);
    ]
  in
  let engine, _ = H.correlate_raw logs in
  List.hd (Core.Cag_engine.finished engine)

(* A two-tier request (no db hop): a second, shorter pattern. [program]
   renames the app tier, which changes the signature — handy for
   synthesising a pattern the baseline has never seen. *)
let mk_short_cag ?(program = "java") ~base () =
  let app_ctx = H.ctx ~host:"app" ~program ~pid:20 ~tid:21 () in
  let w =
    [
      H.act ~kind:Activity.Begin ~ts:base ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:400;
      H.act ~kind:Activity.Send ~ts:(base + 1_000_000) ~ctx:H.web_ctx ~flow:H.web_app_flow
        ~size:500;
      H.act ~kind:Activity.Receive ~ts:(base + 4_000_000) ~ctx:H.web_ctx
        ~flow:H.app_web_flow ~size:900;
      H.act ~kind:Activity.End_ ~ts:(base + 5_000_000) ~ctx:H.web_ctx
        ~flow:H.web_client_flow ~size:1000;
    ]
  in
  let a =
    [
      H.act ~kind:Activity.Receive ~ts:(base + 2_000_000) ~ctx:app_ctx ~flow:H.web_app_flow
        ~size:500;
      H.act ~kind:Activity.Send ~ts:(base + 3_000_000) ~ctx:app_ctx ~flow:H.app_web_flow
        ~size:900;
    ]
  in
  let logs =
    [ Trace.Log.of_list ~hostname:"web" w; Trace.Log.of_list ~hostname:"app" a ]
  in
  let engine, _ = H.correlate_raw logs in
  List.hd (Core.Cag_engine.finished engine)

(* Two path shapes built by hand whose signatures would collide if
   names went into them unescaped: the merged shape's third vertex has a
   program name that spells the plain shape's third and fourth vertices.
   Their critical paths differ in length: END <- SEND a/j <- SEND <-
   BEGIN (3 hops) and END <- RECEIVE w/h <- BEGIN (2 hops). *)
let colliding_cag ~merged ~base =
  let flow =
    Simnet.Address.flow
      ~src:(Simnet.Address.endpoint (Simnet.Address.ip_of_string "10.0.0.1") 80)
      ~dst:(Simnet.Address.endpoint (Simnet.Address.ip_of_string "10.0.0.2") 8080)
  in
  let act kind ms host program =
    {
      Activity.kind;
      timestamp = ST.of_ns (base + (ms * 1_000_000));
      context = { Activity.host; program; pid = 1; tid = 1 };
      message = { Activity.flow; size = 10 };
    }
  in
  let root = Core.Cag.Builder.fresh_vertex (act Activity.Begin 0 "w" "h") in
  let cag = Core.Cag.Builder.create ~cag_id:(base / 1_000_000) root in
  let add kind ms host program edge parent =
    let v = Core.Cag.Builder.fresh_vertex (act kind ms host program) in
    Core.Cag.Builder.adopt cag v;
    Core.Cag.Builder.add_edge edge ~parent ~child:v;
    v
  in
  let s = add Activity.Send 1 "w" "h" Core.Cag.Context_edge root in
  let third =
    if merged then add Activity.Receive 2 "a" "j<m1;SEND/a/j" Core.Cag.Context_edge s
    else begin
      ignore (add Activity.Receive 2 "a" "j" Core.Cag.Message_edge s);
      add Activity.Send 3 "a" "j" Core.Cag.Context_edge s
    end
  in
  let fourth = add Activity.Receive 4 "w" "h" Core.Cag.Message_edge root in
  ignore
    (add Activity.End_ 5 "w" "h" Core.Cag.Context_edge (if merged then fourth else third));
  Core.Cag.Builder.finish cag;
  cag

let detector ?baseline config =
  Detector.create ~config ?baseline ~telemetry:(Telemetry.Registry.create ()) ()

let feed det cags = List.concat_map (Detector.observe det) cags

let healthy n ~from ~spacing = List.init n (fun i -> mk_cag ~base:(from + (i * spacing)) ())

let kinds vs = List.map (fun v -> v.Detector.kind) vs

(* ---- baseline ---- *)

let test_baseline_round_trip () =
  let cags =
    healthy 40 ~from:0 ~spacing:20_000_000
    @ List.init 10 (fun i -> mk_short_cag ~base:(800_000_000 + (i * 20_000_000)) ())
  in
  let bl = Baseline.of_paths cags in
  Alcotest.(check int) "paths" 50 bl.Baseline.total_paths;
  Alcotest.(check int) "patterns" 2 (List.length bl.Baseline.profiles);
  Alcotest.(check bool) "profiles are the offline §5.4 profiles" true
    (bl.Baseline.profiles = Aggregate.profiles_of_cags cags);
  let top = List.hd bl.Baseline.profiles in
  Alcotest.(check string) "dominant pattern" "httpd>java>mysqld>java>httpd" top.Analysis.name;
  Alcotest.(check (float 1e-9)) "frequency" 0.8 (Baseline.frequency bl top);
  Alcotest.(check (float 1e-6)) "mean duration" 0.009 top.Analysis.mean_total_s;
  let sum = List.fold_left (fun acc c -> acc +. c.Analysis.share) 0.0 top.Analysis.components in
  Alcotest.(check (float 1e-6)) "shares sum to 1" 1.0 sum;
  Alcotest.(check bool) "throughput learned" true (bl.Baseline.throughput_rps > 0.0);
  let path = Filename.temp_file "pt_baseline" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Core.Json.to_string ~indent:true (Baseline.to_json bl)));
  let bl' =
    match Baseline.load ~path with
    | Ok b -> b
    | Error e -> Alcotest.failf "load: %s" e
  in
  Sys.remove path;
  Alcotest.(check bool) "baseline round-trips" true (bl' = bl)

(* The per-path share document this format replaced. *)
let baseline_v1 =
  let open Core.Json in
  Obj
    [
      ("format", String "pt-baseline-1");
      ("total_paths", Int 40);
      ("span_s", Float 0.78);
      ("throughput_rps", Float 51.3);
      ( "patterns",
        List
          [
            Obj
              [
                ("signature", String "b/web/httpd<;");
                ("name", String "httpd");
                ("count", Int 40);
                ("frequency", Float 1.0);
                ("mean_duration_s", Float 0.009);
                ("components", List [ Obj [ ("src", String "httpd"); ("dst", String "httpd") ] ]);
                ("shares", List [ Float 1.0 ]);
              ];
          ] );
    ]

let test_baseline_rejects_bad_json () =
  List.iter
    (fun (what, doc) ->
      match Baseline.of_json doc with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error e ->
          Alcotest.(check bool) (what ^ ": names the format") true
            (H.contains e "unsupported format"))
    [
      ("an unknown format tag", Core.Json.Obj [ ("format", Core.Json.String "nope") ]);
      ("a pt-baseline-1 document", baseline_v1);
    ];
  match Baseline.load ~path:"/nonexistent/pt_baseline.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

let test_baseline_sliding_window () =
  (* Capacity keeps only the most recent paths: early outliers age out. *)
  let drifted = List.init 30 (fun i -> mk_cag ~db_extra:(ST.ms 9) ~base:(i * 20_000_000) ()) in
  let fresh = healthy 50 ~from:600_000_000 ~spacing:20_000_000 in
  let bl = Baseline.of_paths ~capacity:50 (drifted @ fresh) in
  Alcotest.(check int) "window holds capacity" 50 bl.Baseline.total_paths;
  Alcotest.(check int) "one pattern" 1 (List.length bl.Baseline.profiles);
  let top = List.hd bl.Baseline.profiles in
  Alcotest.(check (float 1e-6)) "drifted paths aged out" 0.009 top.Analysis.mean_total_s

(* ---- detector: synthetic streams ----

   Each detector test below feeds one of these streams phase by phase;
   the "verdicts" group pins the whole verdict stream of every one. *)

type stream = {
  config : Detector.config;
  baseline : Baseline.t option;
  phases : Core.Cag.t list list Lazy.t;
}

let small_config =
  {
    Detector.default_config with
    Detector.warmup_paths = 30;
    window = 10;
    min_window = 10;
  }

(* Phases of paths 20ms apart on one clock: [n] paths built by [mk]
   from each [base]. *)
let timeline phases =
  let t = ref 0 in
  List.map (fun (n, mk) -> List.init n (fun _ -> let b = !t in t := b + 20_000_000; mk b)) phases

let healthy_at b = mk_cag ~base:b ()
let drifted_at b = mk_cag ~db_extra:(ST.ms 9) ~base:b ()

(* Feed a stream, one verdict list per phase. *)
let run_stream s =
  let det = detector ?baseline:s.baseline s.config in
  (det, List.map (feed det) (Lazy.force s.phases))

let warmup_stream =
  (* Arming is governed by warmup_paths even when it is smaller than the
     judging window; judging starts as soon as min_window fills. *)
  {
    config =
      { Detector.default_config with Detector.warmup_paths = 20; window = 80; min_window = 10 };
    baseline = None;
    phases =
      lazy
        [
          healthy 20 ~from:0 ~spacing:20_000_000;
          List.init 40 (fun i -> drifted_at (400_000_000 + (i * 20_000_000)));
        ];
  }

let test_warmup_smaller_than_window () =
  let det, phases = run_stream warmup_stream in
  let vs = List.nth phases 0 in
  Alcotest.(check int) "quiet during warmup" 0 (List.length vs);
  let vs = List.nth phases 1 in
  let drifts =
    List.filter (fun v -> v.Detector.kind = Detector.Share_drift) vs
  in
  (match drifts with
  | [] -> Alcotest.fail "no share-drift verdict for a 9ms db regression"
  | v :: _ -> (
      match v.Detector.culprit with
      | Some (Analysis.Tier "mysqld") -> ()
      | Some s -> Alcotest.failf "wrong culprit: %s" (Analysis.subject_label s)
      | None -> Alcotest.fail "share drift without a culprit"));
  Alcotest.(check bool) "armed after warmup" true (Detector.warmed det);
  Alcotest.(check int) "paths counted" 60 (Detector.paths_seen det)

let single_path_stream =
  (* A pattern seen once during warmup must neither crash the detector
     nor fire mix alarms (it is below mix_min_frequency). *)
  {
    config = { small_config with Detector.warmup_paths = 31; mix_window = 20 };
    baseline = None;
    phases =
      lazy
        [
          healthy 30 ~from:0 ~spacing:20_000_000 @ [ mk_short_cag ~base:620_000_000 () ];
          healthy 40 ~from:700_000_000 ~spacing:20_000_000;
        ];
  }

let test_single_path_pattern_is_quiet () =
  match run_stream single_path_stream with
  | _, [ warm; steady ] ->
      Alcotest.(check int) "quiet warmup" 0 (List.length warm);
      Alcotest.(check int) "steady stream stays quiet" 0 (List.length steady)
  | _ -> assert false

let hysteresis_stream =
  {
    config = small_config;
    baseline = None;
    phases =
      lazy (timeline [ (30, healthy_at); (30, drifted_at); (40, healthy_at); (30, drifted_at) ]);
  }

let test_hysteresis_rearm_after_recovery () =
  let _, phases = run_stream hysteresis_stream in
  let after_first = List.length (List.nth phases 0 @ List.nth phases 1) in
  Alcotest.(check int) "one alert per sustained excursion" 1 after_first;
  let drifts =
    List.filter
      (fun v ->
        v.Detector.kind = Detector.Share_drift
        && match v.Detector.culprit with
           | Some (Analysis.Tier "mysqld") -> true
           | _ -> false)
      (List.concat phases)
  in
  Alcotest.(check int) "re-armed after recovery, fired again" 2 (List.length drifts)

let steady_stream =
  {
    config = small_config;
    baseline = None;
    phases =
      lazy
        (let t = ref 0 in
         [
           List.init 230 (fun i ->
               (* deterministic spacing jitter, 15..25ms *)
               let b = !t in
               t := b + 15_000_000 + (i * 7 mod 11) * 1_000_000;
               mk_cag ~base:b ());
         ]);
  }

let test_no_false_alarms_on_steady_stream () =
  let _, phases = run_stream steady_stream in
  Alcotest.(check int) "faultless stream, zero verdicts" 0 (List.length (List.concat phases))

(* Names that spell separators are escaped, so the two shapes get
   distinct signatures and windows, and each window holds one shape. *)
let test_colliding_signatures () =
  let merged = colliding_cag ~merged:true ~base:0 in
  let plain = colliding_cag ~merged:false ~base:0 in
  Alcotest.(check bool) "distinct signatures" false
    (String.equal (Core.Pattern.signature_of plain) (Core.Pattern.signature_of merged));
  let hops cags = List.map (fun p -> Array.length p.Core.Pattern.spans) (Core.Pattern.classify cags) in
  Alcotest.(check (list int)) "two patterns, 3 and 2 hops" [ 3; 2 ] (hops [ plain; merged ]);
  let det = detector { small_config with Detector.warmup_paths = 20; mix_window = 20 } in
  ignore
    (feed det
       (List.init 60 (fun i -> colliding_cag ~merged:(i mod 2 = 0) ~base:(i * 20_000_000))));
  Alcotest.(check int) "every path judged" 60 (Detector.paths_seen det)

(* ---- detector: pattern mix ---- *)

let mix_stream =
  {
    config =
      { small_config with Detector.warmup_paths = 40; window = 30; min_window = 30; mix_window = 20 };
    baseline = None;
    phases =
      lazy
        (timeline
           [
             (* warmup: half three-tier, half two-tier *)
             (40, fun b -> if b / 20_000_000 mod 2 = 0 then mk_cag ~base:b () else mk_short_cag ~base:b ());
             (* judged stream: the two-tier pattern is gone, a new program appears *)
             ( 30,
               fun b ->
                 if b / 20_000_000 mod 2 = 0 then mk_cag ~base:b ()
                 else mk_short_cag ~program:"tomcat" ~base:b () );
           ]);
  }

let test_mix_vanished_and_new () =
  let vs = List.nth (snd (run_stream mix_stream)) 1 in
  let has k = List.mem k (kinds vs) in
  Alcotest.(check bool) "vanished fired" true (has Detector.Pattern_vanished);
  Alcotest.(check bool) "new-pattern fired" true (has Detector.Pattern_new);
  let vanished =
    List.find (fun v -> v.Detector.kind = Detector.Pattern_vanished) vs
  in
  Alcotest.(check (option string)) "names the vanished pattern"
    (Some "httpd>java>httpd") vanished.Detector.pattern;
  let novel = List.find (fun v -> v.Detector.kind = Detector.Pattern_new) vs in
  Alcotest.(check (option string)) "names the new pattern"
    (Some "httpd>tomcat>httpd") novel.Detector.pattern;
  (* hysteresis: sustained, so each fires exactly once *)
  Alcotest.(check int) "vanished fires once" 1
    (List.length (List.filter (( = ) Detector.Pattern_vanished) (kinds vs)));
  Alcotest.(check int) "new fires once" 1
    (List.length (List.filter (( = ) Detector.Pattern_new) (kinds vs)))

(* A baseline mix of 50/50 watched at 80/20: each baseline pattern's
   share moves 30 points, past the 15-point tolerance, so each fires one
   shift. Back at 50/50 both re-arm (below half the tolerance), and a
   second 80/20 spell fires both again. *)
let shift_stream =
  let mix ~every b = if b / 20_000_000 mod every = 0 then mk_short_cag ~base:b () else mk_cag ~base:b () in
  {
    config = { Detector.default_config with Detector.mix_window = 20 };
    baseline =
      Some
        (Baseline.of_paths
           (List.concat (timeline [ (40, mix ~every:2) ])));
    phases =
      lazy (timeline [ (40, mix ~every:2); (40, mix ~every:5); (40, mix ~every:2); (40, mix ~every:5) ]);
  }

let test_mix_pattern_shift () =
  let _, phases = run_stream shift_stream in
  let shifts vs =
    List.filter_map
      (fun v -> if v.Detector.kind = Detector.Pattern_shift then v.Detector.pattern else None)
      vs
    |> List.sort String.compare
  in
  let both = [ "httpd>java>httpd"; "httpd>java>mysqld>java>httpd" ] in
  Alcotest.(check (list string)) "quiet at the baseline mix" [] (shifts (List.nth phases 0));
  Alcotest.(check (list string)) "80/20: each pattern fires once" both (shifts (List.nth phases 1));
  Alcotest.(check (list string)) "back at 50/50: re-arms quietly" [] (shifts (List.nth phases 2));
  Alcotest.(check (list string)) "80/20 again: fires again" both (shifts (List.nth phases 3));
  Alcotest.(check int) "no other alarm" 4 (List.length (List.concat phases))

(* ---- detector: latency shift ---- *)

let latency_stream =
  (* Stretching every component uniformly keeps the share profile intact:
     only the latency-shift detector may fire, and the verdict carries no
     misleading share culprit. *)
  {
    config = small_config;
    baseline = None;
    phases =
      lazy
        [
          healthy 30 ~from:0 ~spacing:20_000_000;
          List.init 15 (fun i -> mk_cag ~stretch:3 ~base:(600_000_000 + (i * 20_000_000)) ());
        ];
  }

let test_latency_shift_without_share_drift () =
  let vs = List.nth (snd (run_stream latency_stream)) 1 in
  Alcotest.(check bool) "latency shift fired" true
    (List.mem Detector.Latency_shift (kinds vs));
  Alcotest.(check int) "no share drift" 0
    (List.length (List.filter (( = ) Detector.Share_drift) (kinds vs)));
  let v = List.find (fun v -> v.Detector.kind = Detector.Latency_shift) vs in
  Alcotest.(check bool) "observed above baseline" true
    (v.Detector.observed_value > 2.0 *. v.Detector.baseline_value)

(* ---- detector: throughput ---- *)

let throughput_stream =
  {
    config = { small_config with Detector.throughput_window_s = 1.0 };
    baseline = None;
    phases =
      lazy
        [
          healthy 30 ~from:0 ~spacing:10_000_000;
          (* 100 paths/s learned; the stream collapses to 5/s *)
          healthy 30 ~from:600_000_000 ~spacing:200_000_000;
        ];
  }

let test_throughput_drop () =
  let vs = List.nth (snd (run_stream throughput_stream)) 1 in
  let drops = List.filter (( = ) Detector.Throughput_drop) (kinds vs) in
  Alcotest.(check int) "one drop verdict while sustained" 1 (List.length drops)

(* ---- scorer ---- *)

let mk_verdict ?(culprit = None) ~at_s () =
  {
    Detector.at = ST.add ST.zero (ST.span_of_float_s at_s);
    kind = Detector.Share_drift;
    pattern = Some "httpd>java>mysqld>java>httpd";
    culprit;
    baseline_value = 0.0;
    observed_value = 0.15;
    reason = "synthetic";
    paths_seen = 100;
  }

let test_scorer_mapping () =
  let reg = Telemetry.Registry.create () in
  let onset = ST.add ST.zero (ST.span_of_float_s 8.0) in
  let hit = mk_verdict ~culprit:(Some (Analysis.Tier "java")) ~at_s:10.0 () in
  let s = Verdict.score ~telemetry:reg ~fault:Faults.ejb_delay ~onset [ hit ] in
  Alcotest.(check bool) "detected" true s.Verdict.detected;
  Alcotest.(check bool) "correct culprit" true s.Verdict.correct;
  Alcotest.(check (option (float 1e-9))) "ttd" (Some 2.0) s.Verdict.time_to_detection_s;
  Alcotest.(check (option string)) "culprit label" (Some "tier java")
    s.Verdict.first_culprit;
  Alcotest.(check int) "no false alarms" 0 s.Verdict.false_alarms;
  (* same verdict, wrong fault: detected but not correct *)
  let s = Verdict.score ~telemetry:reg ~fault:Faults.database_lock ~onset [ hit ] in
  Alcotest.(check bool) "detected" true s.Verdict.detected;
  Alcotest.(check bool) "tier java does not explain a db lock" false s.Verdict.correct;
  (* network fault accepts both the tier network and adjacent interactions *)
  let net c = Verdict.score ~telemetry:reg ~fault:Faults.ejb_network ~onset [ mk_verdict ~culprit:(Some c) ~at_s:9.0 () ] in
  Alcotest.(check bool) "tier_network java accepted" true
    (net (Analysis.Tier_network "java")).Verdict.correct;
  Alcotest.(check bool) "adjacent interaction accepted" true
    (net (Analysis.Interaction { src = "mysqld"; dst = "java" })).Verdict.correct;
  Alcotest.(check bool) "unrelated interaction rejected" false
    (net (Analysis.Interaction { src = "httpd"; dst = "httpd" })).Verdict.correct;
  (* pre-onset verdicts are false alarms *)
  let early = mk_verdict ~culprit:(Some (Analysis.Tier "java")) ~at_s:5.0 () in
  let s = Verdict.score ~telemetry:reg ~fault:Faults.ejb_delay ~onset [ early; hit ] in
  Alcotest.(check int) "early verdict is a false alarm" 1 s.Verdict.false_alarms;
  Alcotest.(check bool) "still correct" true s.Verdict.correct;
  (* control runs: any verdict is a false alarm and sinks correctness *)
  let s = Verdict.score ~telemetry:reg [ hit ] in
  Alcotest.(check bool) "control with verdicts is incorrect" false s.Verdict.correct;
  Alcotest.(check int) "all false alarms" 1 s.Verdict.false_alarms;
  let s = Verdict.score ~telemetry:reg [] in
  Alcotest.(check bool) "silent control is correct" true s.Verdict.correct

(* ---- live end to end ---- *)

let live_spec ?(clients = 50) name faults =
  { S.default with S.name; clients; time_scale = 0.05; faults }

let test_live_detects_mid_run_fault () =
  let reg = Telemetry.Registry.create () in
  let r = Diagnose.Live.run ~telemetry:reg (live_spec "live-ejb" [ Faults.ejb_delay ]) in
  let s = r.Diagnose.Live.score in
  Alcotest.(check bool) "paths watched" true (r.Diagnose.Live.paths_fed > 100);
  Alcotest.(check bool) "baseline learned" true
    (Option.is_some r.Diagnose.Live.baseline);
  Alcotest.(check bool) "detected" true s.Verdict.detected;
  Alcotest.(check bool) "correct culprit" true s.Verdict.correct;
  Alcotest.(check (option string)) "names the app tier" (Some "tier java")
    s.Verdict.first_culprit;
  Alcotest.(check int) "no false alarms" 0 s.Verdict.false_alarms;
  Alcotest.(check bool) "ttd reported" true
    (Option.is_some s.Verdict.time_to_detection_s);
  (* every detector decision reports into the diagnosis telemetry *)
  let families = Telemetry.Registry.snapshot reg in
  (match Telemetry.Registry.find_sample families "pt_diagnose_paths_total" with
  | Some (Telemetry.Registry.Counter n) ->
      Alcotest.(check bool) "paths counted" true (n > 0)
  | _ -> Alcotest.fail "pt_diagnose_paths_total missing");
  let has_alert =
    List.exists
      (fun (f : Telemetry.Registry.family) ->
        String.equal f.Telemetry.Registry.name "pt_diagnose_alerts_total"
        && f.Telemetry.Registry.samples <> [])
      families
  in
  Alcotest.(check bool) "alerts counted with labels" true has_alert

let test_live_control_is_silent () =
  let reg = Telemetry.Registry.create () in
  let r = Diagnose.Live.run ~telemetry:reg (live_spec "live-control" []) in
  let s = r.Diagnose.Live.score in
  Alcotest.(check int) "zero verdicts" 0 (List.length r.Diagnose.Live.verdicts);
  Alcotest.(check bool) "control scored correct" true s.Verdict.correct;
  Alcotest.(check int) "zero false alarms" 0 s.Verdict.false_alarms

(* The rest of the fault matrix, at the diagnose figure's quick size (60
   clients): each fault is named live, with no false alarm. *)
let test_live_names fault subject () =
  let reg = Telemetry.Registry.create () in
  let r = Diagnose.Live.run ~telemetry:reg (live_spec ~clients:60 "live" [ fault ]) in
  let s = r.Diagnose.Live.score in
  Alcotest.(check bool) "correct culprit" true s.Verdict.correct;
  Alcotest.(check (option string)) "first culprit" (Some subject) s.Verdict.first_culprit;
  Alcotest.(check int) "no false alarms" 0 s.Verdict.false_alarms

(* A baseline saved from one healthy run arms the detector of another:
   frozen from a control run, written and read back as JSON, it watches a
   db-lock run from its first judged path. *)
let test_live_supplied_baseline () =
  let reg = Telemetry.Registry.create () in
  let control = Diagnose.Live.run ~telemetry:reg (live_spec ~clients:60 "live-control" []) in
  let saved =
    match control.Diagnose.Live.baseline with
    | Some bl -> Core.Json.to_string (Baseline.to_json bl)
    | None -> Alcotest.fail "control run froze no baseline"
  in
  let baseline =
    match Result.bind (Core.Json.of_string saved) Baseline.of_json with
    | Ok bl -> bl
    | Error e -> Alcotest.failf "reload: %s" e
  in
  let r =
    Diagnose.Live.run ~telemetry:reg ~baseline
      (live_spec ~clients:60 "live" [ Faults.database_lock ])
  in
  let s = r.Diagnose.Live.score in
  Alcotest.(check bool) "ran with the supplied baseline" true
    (r.Diagnose.Live.baseline = Some baseline);
  Alcotest.(check bool) "correct culprit" true s.Verdict.correct;
  Alcotest.(check (option string)) "first culprit" (Some "tier mysqld") s.Verdict.first_culprit;
  Alcotest.(check int) "no false alarms" 0 s.Verdict.false_alarms

(* ---- verdict streams, pinned ----

   The MD5 of each stream's verdicts as JSON: any change to what the
   detector fires, when, or how it words it shows here. *)

let digest vs =
  Digest.to_hex
    (Digest.string (Core.Json.to_string (Core.Json.List (List.map Detector.verdict_to_json vs))))

let synthetic_pins =
  [
    ("warmup", warmup_stream, "84a02cee2a427c5e8524099e08fb8bc7");
    ("single path", single_path_stream, "d751713988987e9331980363e24189ce");
    ("hysteresis", hysteresis_stream, "9f8922cb3c1fd53dcdefdcd964c113d9");
    ("steady", steady_stream, "d751713988987e9331980363e24189ce");
    ("mix", mix_stream, "5c3f2949bc383c0bd03f5f93f8d2e8c3");
    ("shift", shift_stream, "bc8f7fad871d30596ba82ea33e48dbdb");
    ("latency", latency_stream, "a773a57a207aa60236ff5175b0de2adb");
    ("throughput", throughput_stream, "3e5b6ce27e2223dcd1a55fc4577d559d");
  ]

let test_synthetic_pins () =
  List.iter
    (fun (name, stream, expected) ->
      let det, _ = run_stream stream in
      Alcotest.(check string) name expected (digest (Detector.verdicts det)))
    synthetic_pins

(* The spec [diagnose --live --scale 0.05 --seed 11] runs with these
   flags. *)
let cli_spec ?(clients = 60) ?(mix = Tiersim.Workload.Browse_only) ?(max_threads = 40)
    ?(skew_ms = 0) faults =
  {
    S.default with
    S.clients;
    mix;
    max_threads;
    time_scale = 0.05;
    seed = 11;
    skew = ST.ms skew_ms;
    faults;
  }

let live_digest ?baseline spec =
  let r = Diagnose.Live.run ~telemetry:(Telemetry.Registry.create ()) ?baseline spec in
  (r, digest r.Diagnose.Live.verdicts)

let check_pin name expected got =
  Alcotest.(check string) name expected got

(* [-c 60] at each fault and skew, learning its baseline inline. *)
let matrix_pins =
  [
    ( "control",
      [],
      [
        (0, "d751713988987e9331980363e24189ce");
        (50, "40e5d9bf4fbbd0abe3de847882d91b7b");
        (200, "03f450dccb51cfec95a8df296b85aa84");
      ] );
    ( "ejb-delay",
      [ Faults.ejb_delay ],
      [
        (0, "57108ef826e20916259081a90d384261");
        (50, "e10dab88483a9c59201defcd532c48ab");
        (200, "a58e85cba03f492aea3b1daceab01b87");
      ] );
    ( "db-lock",
      [ Faults.database_lock ],
      [
        (0, "1f5c8d82bc47872b9bd84c3f0d7a18f9");
        (50, "5a14f0a6b895e035b37602b9b116ab2d");
        (200, "3f66fe0a09ce4ab2a83b0f49d6ffcced");
      ] );
    ( "ejb-network",
      [ Faults.ejb_network ],
      [
        (0, "2a90cce9b8adea0e980e23aef5bc1dc9");
        (50, "3f8e4a447761187a826604cbbf566d5c");
        (200, "2a90adbbbba073f39836c0250ba55b1f");
      ] );
  ]

(* Every skew's digest is computed before one check, so a failing run
   lists every moved pin. *)
let test_matrix_pin faults pins () =
  let got =
    List.map (fun (skew_ms, _) -> (skew_ms, snd (live_digest (cli_spec ~skew_ms faults)))) pins
  in
  Alcotest.(check (list (pair int string))) "verdict digests by skew (ms)" pins got

(* The baseline the seed-11 [-c 60] control freezes. *)
let control_baseline =
  lazy
    (match (fst (live_digest (cli_spec []))).Diagnose.Live.baseline with
    | Some bl -> bl
    | None -> Alcotest.fail "control run froze no baseline")

let test_supplied_pin spec expected () =
  check_pin "verdicts" expected
    (snd (live_digest ~baseline:(Lazy.force control_baseline) spec))

let () =
  Alcotest.run "diagnose"
    [
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "bad json rejected" `Quick test_baseline_rejects_bad_json;
          Alcotest.test_case "sliding window" `Quick test_baseline_sliding_window;
        ] );
      ( "detector",
        [
          Alcotest.test_case "warmup smaller than window" `Quick
            test_warmup_smaller_than_window;
          Alcotest.test_case "single-path pattern quiet" `Quick
            test_single_path_pattern_is_quiet;
          Alcotest.test_case "hysteresis re-arms after recovery" `Quick
            test_hysteresis_rearm_after_recovery;
          Alcotest.test_case "steady stream, zero verdicts" `Quick
            test_no_false_alarms_on_steady_stream;
          Alcotest.test_case "colliding signatures share a window" `Quick
            test_colliding_signatures;
          Alcotest.test_case "mix: vanished and new patterns" `Quick
            test_mix_vanished_and_new;
          Alcotest.test_case "latency shift without share drift" `Quick
            test_latency_shift_without_share_drift;
          Alcotest.test_case "mix: pattern shift re-arms" `Quick test_mix_pattern_shift;
          Alcotest.test_case "throughput drop" `Quick test_throughput_drop;
        ] );
      ( "verdicts",
        [ Alcotest.test_case "synthetic streams" `Quick test_synthetic_pins ]
        @ List.map
            (fun (name, faults, pins) ->
              Alcotest.test_case ("live " ^ name) `Quick (test_matrix_pin faults pins))
            matrix_pins
        @ [
            Alcotest.test_case "saved baseline, -c 15: throughput drop" `Quick
              (test_supplied_pin (cli_spec ~clients:15 []) "6531936d5eff2811a9f6f5811fff645b");
            Alcotest.test_case "saved baseline, Default mix, 5 threads, ejb-network" `Quick
              (test_supplied_pin
                 (cli_spec ~mix:Tiersim.Workload.Default ~max_threads:5 [ Faults.ejb_network ])
                 "b287e5b9cd3adebd06520f6e8a2a299e");
            Alcotest.test_case "saved baseline, 5 threads, db-lock" `Quick
              (test_supplied_pin (cli_spec ~max_threads:5 [ Faults.database_lock ]) "d73efe3e4af45156cd7494e44e3b2faf");
          ] );
      ( "scorer",
        [ Alcotest.test_case "fault-to-culprit mapping" `Quick test_scorer_mapping ] );
      ( "live",
        [
          Alcotest.test_case "mid-run fault named live" `Quick
            test_live_detects_mid_run_fault;
          Alcotest.test_case "faultless control silent" `Quick
            test_live_control_is_silent;
          Alcotest.test_case "db-lock named live" `Quick
            (test_live_names Faults.database_lock "tier mysqld");
          Alcotest.test_case "ejb-network named live" `Quick
            (test_live_names Faults.ejb_network "network of tier java");
          Alcotest.test_case "db-lock named against a saved baseline" `Quick
            test_live_supplied_baseline;
        ] );
    ]
