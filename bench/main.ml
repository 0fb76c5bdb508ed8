(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the extensions listed in DESIGN.md. Invariants
   of those runs (mesh accuracy, hierarchy reduction and digest identity,
   reduction fidelity, live diagnosis) are checked by `dune runtest`, and
   per-layer speeds by the pipeline benchmark (bench/pipeline); the
   figures here only report them.

   Usage: main.exe [--figure ID]... [--scale S] [--quick] [--jobs N]
                   [--json FILE] [--gate FILE]
                   [--telemetry FILE] [--telemetry-format prom|json|report]
     IDs: accuracy 8 9 10 11 12 13 14 15 16 17 baseline loss ablation
          formats skewfix online store degraded collect hierarchy mesh
          parallel diagnose bundle all
   --jobs adds an extra domain count to the parallel figure's 1/2/4 grid.
   Default: everything, at time_scale 0.1 (stage durations shrunk 10x;
   service times, think times and all rates untouched, so shapes match the
   paper's full-length runs). An unknown argument, figure or telemetry
   format exits 2 before any figure runs.

   --telemetry emits a self-profile of the pipeline's own metrics (metric
   catalogue in docs/TELEMETRY.md) alongside the tables, including a
   pt_bench_figure_seconds{figure=...} wall-time histogram per figure.

   --json emits a machine-readable summary: per-figure wall seconds plus
   the key scalar results each figure chooses to publish (see
   record_scalar below), so CI can diff bench runs without scraping
   tables.

   --gate FILE compares the fresh store figure's ingest throughput
   against the committed reference in FILE (BENCH_store.json), exiting
   non-zero on regression — the `make bench-gate` CI stage. *)

module S = Tiersim.Scenario
module Workload = Tiersim.Workload
module Faults = Tiersim.Faults
module Metrics = Tiersim.Metrics
module Service = Tiersim.Service
module Correlator = Core.Correlator
module Accuracy = Core.Accuracy
module Pattern = Core.Pattern
module Aggregate = Core.Aggregate
module Latency = Core.Latency
module Report = Core.Report
module Nesting = Core.Nesting
module Transform = Core.Transform
module ST = Simnet.Sim_time

module Json = Telemetry.Json

let time_scale = ref 0.1
let quick = ref false
let telemetry_out = ref None
let telemetry_format : Core.Telemetry_report.format ref = ref `Prom
let json_out = ref None
let jobs_override = ref None
let gate_file = ref None

(* Set by a figure whose invariant check (not a timing) failed; the
   harness exits non-zero after writing its outputs. *)
let check_failed = ref false

(* ---- machine-readable results (--json) ---- *)

(* Figures publish their headline numbers here; the driver folds them into
   the --json document under figures.<name>.results.<key>. *)
let scalars : (string * (string * Json.t)) list ref = ref []
let figure_seconds : (string * float) list ref = ref []
let record_scalar ~figure key value = scalars := (figure, (key, value)) :: !scalars
let record_float ~figure key v = record_scalar ~figure key (Json.Float v)
let record_int ~figure key v = record_scalar ~figure key (Json.Int v)

let emit_json file =
  let figures =
    List.map
      (fun (name, seconds) ->
        let results =
          List.rev !scalars
          |> List.filter_map (fun (fig, kv) ->
                 if String.equal fig name then Some kv else None)
        in
        ( name,
          Json.Obj
            (("seconds", Json.Float seconds)
            :: (if results = [] then [] else [ ("results", Json.Obj results) ])) ))
      (List.rev !figure_seconds)
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Int 1);
        ("harness", Json.String "precisetracer-bench");
        ("time_scale", Json.Float !time_scale);
        ("quick", Json.Bool !quick);
        ("figures", Json.Obj figures);
      ]
  in
  let body = Json.to_string ~indent:true doc ^ "\n" in
  if String.equal file "-" then print_string body
  else begin
    match open_out file with
    | oc ->
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
        Printf.printf "bench results written to %s\n" file
    | exception Sys_error msg ->
        Printf.eprintf "cannot write bench results: %s\n" msg;
        exit 1
  end

(* ---- ingest-throughput gate (--gate) ---- *)

(* Timing on shared CI hosts is noisy; the gate exists to catch a real
   regression (the native path silently falling back to record-at-a-time
   work), not scheduler jitter, so it allows the fresh figure to dip to
   this fraction of the committed reference before failing. *)
let gate_slack = 0.5

let as_float = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* [figures.store.results.ingest_records_per_s] of a committed
   BENCH_store.json reference run, or [None] when the file is unreadable
   or lacks it. *)
let committed_ingest file =
  let ( let* ) = Option.bind in
  let* body =
    match In_channel.with_open_bin file In_channel.input_all with
    | body -> Some body
    | exception Sys_error _ -> None
  in
  let* doc = Result.to_option (Json.of_string body) in
  let* figures = Json.member "figures" doc in
  let* store = Json.member "store" figures in
  let* results = Json.member "results" store in
  as_float (Json.member "ingest_records_per_s" results)

let run_gate file =
  let fresh =
    as_float
      (List.find_map
         (fun (fig, (k, v)) ->
           if String.equal fig "store" && String.equal k "ingest_records_per_s" then Some v
           else None)
         !scalars)
  in
  match (fresh, committed_ingest file) with
  | None, _ ->
      Printf.eprintf "bench gate: no fresh store figure (run with --figure store)\n";
      exit 1
  | _, None ->
      Printf.eprintf "bench gate: cannot read ingest_records_per_s from %s\n" file;
      exit 1
  | Some fresh, Some reference ->
      let floor = gate_slack *. reference in
      if fresh < floor then begin
        Printf.eprintf
          "bench gate: ingest regression — %.0f records/s is below %.0f (%.0f%% of the \
           committed %.0f in %s)\n"
          fresh floor (100.0 *. gate_slack) reference file;
        exit 1
      end
      else
        Printf.printf
          "bench gate: ingest %.0f records/s >= %.0f (%.0f%% of committed %.0f) — ok\n" fresh
          floor (100.0 *. gate_slack) reference

(* ---- memoised scenario runs and correlations ---- *)

let outcomes : (S.spec, S.outcome) Hashtbl.t = Hashtbl.create 64

let run spec =
  match Hashtbl.find_opt outcomes spec with
  | Some o -> o
  | None ->
      let o = S.run spec in
      Hashtbl.replace outcomes spec o;
      o

let correlations : (S.spec * int, Correlator.result) Hashtbl.t = Hashtbl.create 64

let correlate ?(window = ST.ms 10) spec =
  let key = (spec, ST.span_ns window) in
  match Hashtbl.find_opt correlations key with
  | Some r -> r
  | None ->
      let outcome = run spec in
      let cfg = Correlator.config ~transform:outcome.S.transform ~window () in
      let r = Correlator.correlate cfg outcome.S.logs in
      Hashtbl.replace correlations key r;
      r

(* The BEGIN/END transform over record lists, for the baselines
   (nesting, DPM) that take them. *)
let transform_logs cfg logs =
  Trace.Arena.to_collection (Transform.apply_native cfg (Trace.Arena.of_collection logs))

let base_spec () = { S.default with S.time_scale = !time_scale }

let clients_grid () =
  if !quick then [ 100; 400; 700; 1000 ]
  else [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ]

(* The ViewItem-like pattern: the most frequent pattern that visits the
   database twice (ViewItem is its dominant class). *)
let viewitem_pattern result =
  let patterns = Pattern.classify result.Correlator.cags in
  let visits_db_twice p =
    List.length (String.split_on_char '>' p.Pattern.name |> List.filter (String.equal "mysqld"))
    >= 2
  in
  match List.find_opt visits_db_twice patterns with
  | Some p -> p
  | None -> List.hd patterns

let paper_components =
  [ "httpd2httpd"; "httpd2java"; "java2httpd"; "java2java"; "java2mysqld"; "mysqld2java";
    "mysqld2mysqld" ]

let component_row avg =
  let pcts = Core.Analysis.shares avg in
  List.map
    (fun label ->
      let v =
        List.fold_left
          (fun acc (c, v) -> if String.equal (Latency.component_label c) label then v else acc)
          0.0 pcts
      in
      Report.cell_pct v)
    paper_components

(* ---- table (5.2): accuracy ---- *)

let bench_accuracy () =
  let t =
    Report.table ~title:"Table (5.2): path accuracy across configurations"
      ~columns:
        [ "mix"; "clients"; "window"; "skew"; "noise"; "requests"; "paths"; "accuracy"; "FP"; "FN" ]
  in
  let base = base_spec () in
  let cases =
    List.map (fun c -> ({ base with S.clients = c }, ST.ms 10)) [ 100; 400; 700; 1000 ]
    @ List.map (fun w -> ({ base with S.clients = 300 }, w)) [ ST.ms 1; ST.ms 100; ST.sec 10 ]
    @ List.map
        (fun skew_ms -> ({ base with S.clients = 300; skew = ST.ms skew_ms }, ST.ms 2))
        [ 1; 100; 500 ]
    @ [
        ({ base with S.clients = 300; mix = Workload.Default }, ST.ms 10);
        ({ base with S.clients = 300; noise = S.Paper_noise { db_connections = 4 } }, ST.ms 2);
        ( {
            base with
            S.clients = 300;
            noise = S.Paper_noise { db_connections = 4 };
            skew = ST.ms 200;
          },
          ST.ms 2 );
      ]
  in
  List.iter
    (fun (spec, window) ->
      let outcome = run spec in
      let result = correlate ~window spec in
      let verdict = Accuracy.check ~ground_truth:outcome.S.ground_truth result.Correlator.cags in
      Report.add_row t
        [
          Workload.mix_to_string spec.S.mix;
          Report.cell_int spec.S.clients;
          Report.cell_span window;
          Report.cell_span spec.S.skew;
          (match spec.S.noise with S.No_noise -> "no" | S.Paper_noise _ -> "yes");
          Report.cell_int verdict.Accuracy.total_requests;
          Report.cell_int (List.length result.Correlator.cags);
          Report.cell_pct verdict.Accuracy.accuracy;
          Report.cell_int verdict.false_positives;
          Report.cell_int verdict.false_negatives;
        ])
    cases;
  Report.print t

(* ---- Fig. 8 ---- *)

let bench_fig8 () =
  let t =
    Report.table ~title:"Fig. 8: serviced requests vs concurrent clients (Browse_only)"
      ~columns:[ "clients"; "requests"; "throughput (req/s)" ]
  in
  List.iter
    (fun clients ->
      let outcome = run { (base_spec ()) with S.clients } in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_int (Metrics.total_recorded outcome.S.metrics);
          Report.cell_float ~decimals:1 outcome.S.summary.Metrics.throughput_rps;
        ])
    (clients_grid ());
  Report.print t

(* ---- Fig. 9 ---- *)

let bench_fig9 () =
  let t =
    Report.table ~title:"Fig. 9: correlation time vs serviced requests (window 10 ms)"
      ~columns:[ "clients"; "requests"; "activities"; "correlation time (s)"; "us/request" ]
  in
  List.iter
    (fun clients ->
      let spec = { (base_spec ()) with S.clients } in
      let outcome = run spec in
      let result = correlate spec in
      let n = List.length result.Correlator.cags in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_int n;
          Report.cell_int outcome.S.activity_count;
          Report.cell_float ~decimals:4 result.correlation_time;
          Report.cell_float ~decimals:2 (result.correlation_time /. float_of_int (max 1 n) *. 1e6);
        ])
    (clients_grid ());
  Report.print t

(* ---- Figs. 10-11 ---- *)

let window_grid () =
  if !quick then [ ST.ms 1; ST.sec 1 ]
  else [ ST.ms 1; ST.ms 10; ST.ms 100; ST.sec 1; ST.sec 10; ST.sec 100 ]

let bench_fig10_11 () =
  let t10 =
    Report.table ~title:"Fig. 10: correlation time vs sliding window size"
      ~columns:[ "clients"; "window"; "correlation time (s)" ]
  in
  let t11 =
    Report.table ~title:"Fig. 11: correlator memory vs sliding window size"
      ~columns:[ "clients"; "window"; "peak records" ]
  in
  List.iter
    (fun clients ->
      let spec = { (base_spec ()) with S.clients } in
      List.iter
        (fun window ->
          let result = correlate ~window spec in
          Report.add_row t10
            [
              Report.cell_int clients;
              Report.cell_span window;
              Report.cell_float ~decimals:4 result.Correlator.correlation_time;
            ];
          Report.add_row t11
            [
              Report.cell_int clients;
              Report.cell_span window;
              Report.cell_int result.peak_memory_proxy;
            ])
        (window_grid ()))
    [ 200; 500; 800 ];
  Report.print t10;
  Report.print t11

(* ---- Figs. 12-13 ---- *)

let bench_fig12_13 () =
  let t12 =
    Report.table ~title:"Fig. 12: throughput, tracing disabled vs enabled"
      ~columns:[ "clients"; "disabled (req/s)"; "enabled (req/s)"; "overhead" ]
  in
  let t13 =
    Report.table ~title:"Fig. 13: average response time, tracing disabled vs enabled"
      ~columns:[ "clients"; "disabled (ms)"; "enabled (ms)"; "increase" ]
  in
  let max_tp = ref 0.0 and max_rt = ref 0.0 in
  List.iter
    (fun clients ->
      let on = run { (base_spec ()) with S.clients } in
      let off = run { (base_spec ()) with S.clients; tracing = false } in
      let tp_on = on.S.summary.Metrics.throughput_rps in
      let tp_off = off.S.summary.Metrics.throughput_rps in
      let rt_on = on.S.summary.Metrics.mean_rt_s *. 1e3 in
      let rt_off = off.S.summary.Metrics.mean_rt_s *. 1e3 in
      let tp_drop = if tp_off > 0.0 then (tp_off -. tp_on) /. tp_off else 0.0 in
      let rt_incr = if rt_off > 0.0 then (rt_on -. rt_off) /. rt_off else 0.0 in
      if tp_drop > !max_tp then max_tp := tp_drop;
      if rt_incr > !max_rt then max_rt := rt_incr;
      Report.add_row t12
        [
          Report.cell_int clients;
          Report.cell_float ~decimals:1 tp_off;
          Report.cell_float ~decimals:1 tp_on;
          Report.cell_pct tp_drop;
        ];
      Report.add_row t13
        [
          Report.cell_int clients;
          Report.cell_float ~decimals:1 rt_off;
          Report.cell_float ~decimals:1 rt_on;
          Report.cell_pct rt_incr;
        ])
    (clients_grid ());
  Report.print t12;
  Report.print t13;
  Printf.printf
    "max throughput overhead %.1f%% (paper: 3.7%%); max RT increase %.1f%% (paper: <30%%)\n\n"
    (100.0 *. !max_tp) (100.0 *. !max_rt)

(* ---- Fig. 14 ---- *)

let bench_fig14 () =
  let t =
    Report.table ~title:"Fig. 14: correlation time with and without noise (window 2 ms)"
      ~columns:
        [ "clients"; "activities"; "noise activities"; "no_noise (s)"; "noise (s)"; "accuracy" ]
  in
  let clients_list = if !quick then [ 100; 500 ] else [ 100; 300; 500; 700; 900 ] in
  List.iter
    (fun clients ->
      let clean_spec = { (base_spec ()) with S.clients } in
      let noisy_spec =
        { (base_spec ()) with S.clients; noise = S.Paper_noise { db_connections = 4 } }
      in
      let clean = correlate ~window:(ST.ms 2) clean_spec in
      let noisy = correlate ~window:(ST.ms 2) noisy_spec in
      let noisy_outcome = run noisy_spec in
      let clean_outcome = run clean_spec in
      let verdict =
        Accuracy.check ~ground_truth:noisy_outcome.S.ground_truth noisy.Correlator.cags
      in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_int clean_outcome.S.activity_count;
          Report.cell_int (noisy_outcome.S.activity_count - clean_outcome.S.activity_count);
          Report.cell_float ~decimals:4 clean.Correlator.correlation_time;
          Report.cell_float ~decimals:4 noisy.Correlator.correlation_time;
          Report.cell_pct verdict.Accuracy.accuracy;
        ])
    clients_list;
  Report.print t

(* ---- Fig. 15 ---- *)

let bench_fig15 () =
  let t =
    Report.table
      ~title:"Fig. 15: latency percentages of components, ViewItem-like path (MaxThreads=40)"
      ~columns:("clients" :: paper_components)
  in
  List.iter
    (fun clients ->
      let result = correlate { (base_spec ()) with S.clients } in
      let avg = Aggregate.of_pattern (viewitem_pattern result) in
      Report.add_row t (Report.cell_int clients :: component_row avg))
    [ 500; 600; 700; 800 ];
  Report.print t

(* ---- Fig. 16 ---- *)

let bench_fig16 () =
  let t =
    Report.table ~title:"Fig. 16: performance for MaxThreads 40 vs 250"
      ~columns:[ "clients"; "TP_MT40"; "TP_MT250"; "RT_MT40 (ms)"; "RT_MT250 (ms)" ]
  in
  List.iter
    (fun clients ->
      let mt40 = run { (base_spec ()) with S.clients } in
      let mt250 = run { (base_spec ()) with S.clients; max_threads = 250 } in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_float ~decimals:1 mt40.S.summary.Metrics.throughput_rps;
          Report.cell_float ~decimals:1 mt250.S.summary.Metrics.throughput_rps;
          Report.cell_float ~decimals:1 (mt40.S.summary.Metrics.mean_rt_s *. 1e3);
          Report.cell_float ~decimals:1 (mt250.S.summary.Metrics.mean_rt_s *. 1e3);
        ])
    (clients_grid ());
  Report.print t

(* ---- Fig. 17 ---- *)

let bench_fig17 () =
  let t =
    Report.table
      ~title:"Fig. 17: latency percentages for normal and abnormal cases (300 clients)"
      ~columns:("case" :: paper_components)
  in
  let base = { (base_spec ()) with S.clients = 300 } in
  let cases =
    [
      ("normal", base);
      ("EJB_Delay", { base with S.faults = [ Faults.ejb_delay ] });
      ("Database_Lock", { base with S.faults = [ Faults.database_lock ] });
      ("EJB_Network", { base with S.faults = [ Faults.ejb_network ] });
    ]
  in
  let profiles =
    List.map
      (fun (name, spec) ->
        let result = correlate spec in
        let avg = Aggregate.of_pattern (viewitem_pattern result) in
        Report.add_row t (name :: component_row avg);
        (name, avg))
      cases
  in
  Report.print t;
  (* And run the paper's diagnosis methodology on each abnormal case. *)
  match profiles with
  | (_, normal) :: abnormal ->
      List.iter
        (fun (name, avg) ->
          let report =
            Core.Analysis.compare_profiles ~baseline:(Core.Analysis.shares normal)
              ~observed:(Core.Analysis.shares avg)
          in
          Format.printf "diagnosis for %s:@." name;
          (match report.Core.Analysis.suspects with
          | s :: _ ->
              Format.printf "  prime suspect: %s (%s)@."
                (Core.Analysis.subject_label s.Core.Analysis.subject)
                s.reason
          | [] -> Format.printf "  no suspect found@.");
          Format.printf "@.")
        abnormal
  | [] -> ()

(* ---- ext-1: nesting baseline ---- *)

let bench_baseline () =
  let t =
    Report.table
      ~title:"ext-1: PreciseTracer vs black-box baselines (nesting = Project5/WAP5-style,               DPM = pairwise causality graph)"
      ~columns:
        [ "clients"; "requests"; "precisetracer"; "nesting"; "nesting w/ 400ms skew";
          "dpm paths"; "dpm phantoms" ]
  in
  let clients_list = if !quick then [ 1; 150 ] else [ 1; 50; 150; 300 ] in
  List.iter
    (fun clients ->
      let spec = { (base_spec ()) with S.clients } in
      let outcome = run spec in
      let precise =
        Accuracy.check ~ground_truth:outcome.S.ground_truth (correlate spec).Correlator.cags
      in
      let nesting_of spec =
        let outcome = run spec in
        let prepared = transform_logs outcome.S.transform outcome.S.logs in
        (Nesting.score ~ground_truth:outcome.ground_truth (Nesting.infer prepared))
          .Accuracy.accuracy
      in
      let dpm_stats =
        let prepared = transform_logs outcome.S.transform outcome.S.logs in
        Core.Dpm.evaluate ~max_paths:100_000 ~ground_truth:outcome.ground_truth
          (Core.Dpm.build prepared)
      in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_int precise.Accuracy.total_requests;
          Report.cell_pct precise.accuracy;
          Report.cell_pct (nesting_of spec);
          Report.cell_pct (nesting_of { spec with S.skew = ST.ms 400 });
          Printf.sprintf "%d%s" dpm_stats.Core.Dpm.paths_found
            (if dpm_stats.truncated then "+" else "");
          Report.cell_int dpm_stats.phantom_paths;
        ])
    clients_list;
  Report.print t

(* ---- ext-2: loss ---- *)

let bench_loss () =
  let t =
    Report.table ~title:"ext-2: activity loss vs deformed CAGs (300 clients)"
      ~columns:[ "loss rate"; "finished"; "deformed"; "accuracy"; "deformed share" ]
  in
  let spec = { (base_spec ()) with S.clients = 300 } in
  let outcome = run spec in
  List.iter
    (fun p ->
      let rng = Simnet.Rng.create ~seed:99 in
      let logs = Trace.Loss.drop ~rng ~p outcome.S.logs in
      let cfg = Correlator.config ~transform:outcome.S.transform () in
      let result = Correlator.correlate cfg logs in
      let verdict = Accuracy.check ~ground_truth:outcome.ground_truth result.Correlator.cags in
      let finished = List.length result.Correlator.cags in
      let deformed = List.length result.deformed in
      Report.add_row t
        [
          Report.cell_pct p;
          Report.cell_int finished;
          Report.cell_int deformed;
          Report.cell_pct verdict.Accuracy.accuracy;
          Report.cell_pct (float_of_int deformed /. float_of_int (max 1 (finished + deformed)));
        ])
    [ 0.0; 0.001; 0.005; 0.02; 0.05 ];
  Report.print t

(* ---- ext-6: mechanism ablations ---- *)

let bench_ablation () =
  let t =
    Report.table
      ~title:
        "ext-7: what each ranker mechanism buys (300 clients; Rule 1 and promotion          disabled in turn)"
      ~columns:
        [ "variant"; "accuracy"; "FP"; "FN"; "noise discards"; "forced discards"; "promotions" ]
  in
  (* Noise plus skew with a tiny window is the regime where every
     mechanism earns its keep (promotions resolve receive-blocked heads). *)
  let spec =
    {
      (base_spec ()) with
      S.clients = 300;
      noise = S.Paper_noise { db_connections = 4 };
      skew = ST.ms 200;
    }
  in
  let outcome = run spec in
  let variants =
    [
      ("full algorithm", Core.Ranker.no_ablation);
      ("no Rule 1", { Core.Ranker.disable_rule1 = true; disable_promotion = false });
      ("no promotion", { Core.Ranker.disable_rule1 = false; disable_promotion = true });
      ("neither", { Core.Ranker.disable_rule1 = true; disable_promotion = true });
    ]
  in
  List.iter
    (fun (name, ablation) ->
      let cfg =
        Correlator.config ~transform:outcome.S.transform ~window:(ST.ms 2) ~ablation ()
      in
      let result = Correlator.correlate cfg outcome.S.logs in
      let verdict = Accuracy.check ~ground_truth:outcome.S.ground_truth result.Correlator.cags in
      let rs = result.ranker_stats in
      Report.add_row t
        [
          name;
          Report.cell_pct verdict.Accuracy.accuracy;
          Report.cell_int verdict.false_positives;
          Report.cell_int verdict.false_negatives;
          Report.cell_int rs.Core.Ranker.noise_discarded;
          Report.cell_int rs.forced_discards;
          Report.cell_int rs.promotions;
        ])
    variants;
  Report.print t

(* ---- ext-4: skew estimation and corrected latency percentages ---- *)

let bench_skewfix () =
  let t =
    Report.table
      ~title:
        "ext-4: interaction latency percentages under 400 ms skew, raw vs skew-corrected          (300 clients; 0-skew run as reference)"
      ~columns:("variant" :: paper_components)
  in
  let spec_skewed = { (base_spec ()) with S.clients = 300; skew = ST.ms 400 } in
  let spec_clean = { (base_spec ()) with S.clients = 300 } in
  let result_skewed = correlate spec_skewed in
  let result_clean = correlate spec_clean in
  let est = Core.Skew_estimator.estimate result_skewed.Correlator.cags in
  let profile breakdown_of result =
    let pattern = viewitem_pattern result in
    let sums = Hashtbl.create 8 in
    let n = ref 0 in
    List.iter
      (fun cag ->
        incr n;
        List.iter
          (fun (c, span) ->
            let key = Latency.component_label c in
            let v = ST.span_to_float_s span in
            Hashtbl.replace sums key (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums key)))
          (breakdown_of cag))
      pattern.Pattern.cags;
    let total = Hashtbl.fold (fun _ v acc -> acc +. v) sums 0.0 in
    List.map
      (fun label ->
        Report.cell_pct (Option.value ~default:0.0 (Hashtbl.find_opt sums label) /. total))
      paper_components
  in
  Report.add_row t ("raw (400ms skew)" :: profile Latency.breakdown result_skewed);
  Report.add_row t
    ("corrected (400ms skew)"
    :: profile (Core.Skew_estimator.corrected_breakdown est) result_skewed);
  Report.add_row t ("reference (no skew)" :: profile Latency.breakdown result_clean);
  Report.print t;
  Format.printf "estimated clock offsets (truth: web1 +0, app1 +400ms, db1 -400ms):@.";
  List.iter
    (fun e ->
      Format.printf "  %-8s %+10.3f ms (%d pairs)@." e.Core.Skew_estimator.host
        (ST.span_to_float_s e.offset *. 1e3)
        e.pairs_used)
    (Core.Skew_estimator.offsets est);
  Format.printf "@."

(* ---- ext-5: online correlation lag ---- *)

let bench_online () =
  let t =
    Report.table
      ~title:"ext-5: online vs offline correlation (replayed feed, 10 ms window)"
      ~columns:
        [ "clients"; "paths offline"; "paths online"; "identical"; "emitted before close" ]
  in
  List.iter
    (fun clients ->
      let spec = { (base_spec ()) with S.clients } in
      let outcome = run spec in
      let offline = correlate spec in
      let cfg = Correlator.config ~transform:outcome.S.transform () in
      let hosts = List.map Trace.Log.hostname outcome.S.logs in
      let online = Core.Online.create ~config:cfg ~hosts () in
      Core.Online.replay online (Trace.Arena.of_collection outcome.S.logs);
      let before_close = List.length (Core.Online.paths online) in
      Core.Online.finish online;
      let online_paths = Core.Online.paths online in
      let identical =
        List.length online_paths = List.length offline.Correlator.cags
        && List.for_all2
             (fun a b ->
               String.equal (Pattern.signature_of a) (Pattern.signature_of b))
             offline.Correlator.cags online_paths
      in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_int (List.length offline.Correlator.cags);
          Report.cell_int (List.length online_paths);
          (if identical then "yes" else "NO");
          Report.cell_pct
            (float_of_int before_close /. float_of_int (max 1 (List.length online_paths)));
        ])
    (if !quick then [ 100; 500 ] else [ 100; 300; 500 ]);
  Report.print t

(* ---- ext-10: degraded feed (straggler eviction & backpressure) ---- *)

let bench_degraded () =
  let clients = if !quick then 120 else 300 in
  (* app1's probe goes dark mid-run: a scaled 300 s into the run, well past
     the up-ramp and well before the natural end, so roughly half the feed
     arrives with one stream permanently silent. *)
  let silence = ST.span_scale !time_scale (ST.ms 300_000) in
  let spec =
    {
      (base_spec ()) with
      S.clients;
      faults = [ Faults.host_silence ~host:"app1" ~after:silence ];
    }
  in
  let outcome = run spec in
  let cfg = Correlator.config ~transform:outcome.S.transform () in
  let hosts = List.map Trace.Log.hostname outcome.S.logs in
  let arenas = Trace.Arena.of_collection outcome.S.logs in
  let replay ?straggler_timeout ?max_buffered () =
    let online =
      Core.Online.create ~config:cfg ~hosts ?straggler_timeout ?max_buffered ()
    in
    Core.Online.replay online arenas;
    let live = List.length (Core.Online.paths online) in
    Core.Online.finish online;
    (online, live, Core.Online.peak_pending online)
  in
  let t =
    Report.table
      ~title:"ext-10: degraded feed (app1 silent mid-run, 10 ms window)"
      ~columns:
        [
          "mode"; "paths"; "emitted live"; "peak pending"; "deformed"; "evicted";
          "backpressure";
        ]
  in
  let row label (online, live, peak) =
    let s = Core.Online.ranker_stats online in
    let paths = Core.Online.paths online in
    let deformed = List.length (List.filter Core.Cag.is_deformed paths) in
    Report.add_row t
      [
        label;
        Report.cell_int (List.length paths);
        Report.cell_int live;
        Report.cell_int peak;
        Report.cell_int deformed;
        Report.cell_int s.Core.Ranker.stragglers_evicted;
        Report.cell_int s.Core.Ranker.backpressure_pops;
      ];
    (List.length paths, live, peak, deformed)
  in
  let _, live0, peak0, _ = row "wait forever" (replay ()) in
  let paths1, live1, peak1, deformed1 =
    row "straggler timeout 500 ms" (replay ~straggler_timeout:(ST.ms 500) ())
  in
  let _, _, peak2, _ = row "max buffered 500" (replay ~max_buffered:500 ()) in
  Report.print t;
  record_int ~figure:"degraded" "paths" paths1;
  record_int ~figure:"degraded" "live_no_eviction" live0;
  record_int ~figure:"degraded" "live_with_timeout" live1;
  record_int ~figure:"degraded" "peak_pending_no_eviction" peak0;
  record_int ~figure:"degraded" "peak_pending_with_timeout" peak1;
  record_int ~figure:"degraded" "peak_pending_max_buffered" peak2;
  record_int ~figure:"degraded" "deformed_with_timeout" deformed1

(* ---- ext-12: in-band collection plane (agents, wire, collector) ---- *)

let bench_collect () =
  let clients = if !quick then 120 else 300 in
  let spec = { (base_spec ()) with S.clients } in
  (* Out-of-band baseline: probes append to per-host logs that the offline
     correlator reads for free after the run ends. *)
  let baseline = run spec in
  let in_band ~batch =
    let reg = Telemetry.Registry.create () in
    let deploy = ref None in
    let config =
      {
        Collect.Deploy.default_config with
        Collect.Deploy.agent =
          { Collect.Agent.default_config with Collect.Agent.batch_records = batch };
      }
    in
    let outcome =
      S.run
        ~before_run:(fun svc ->
          deploy := Some (Collect.Deploy.install ~telemetry:reg ~config svc))
        ~after_run:(fun _ -> Collect.Deploy.finish (Option.get !deploy))
        spec
    in
    (outcome, Option.get !deploy, reg)
  in
  let lag_of reg =
    match
      Telemetry.Registry.(find_sample (snapshot reg) "pt_collect_delivery_lag_seconds")
    with
    | Some (Telemetry.Registry.Hist h) when h.count > 0 -> (h.p50, h.p90, h.p99)
    | _ -> (0.0, 0.0, 0.0)
  in
  let t =
    Report.table
      ~title:
        (Printf.sprintf
           "ext-12: in-band collection plane (%d clients, batch-size sweep)" clients)
      ~columns:
        [
          "batch"; "frames"; "bytes/record"; "retransmits"; "lag p50 ms"; "lag p90 ms";
          "lag p99 ms"; "identical";
        ]
  in
  (* Small batches bind before the 50 ms flush interval does, so the sweep
     exposes the per-frame overhead; 256 is the agent default. *)
  let batches = if !quick then [ 8; 32; 256 ] else [ 8; 32; 64; 256 ] in
  let default_batch = 256 in
  let headline = ref None in
  List.iter
    (fun batch ->
      let outcome, deploy, reg = in_band ~batch in
      let frames, bytes, retransmits =
        List.fold_left
          (fun (f, b, r) agent ->
            let s = Collect.Agent.stats agent in
            ( f + s.Collect.Agent.frames_shipped,
              b + s.Collect.Agent.bytes_shipped,
              r + s.Collect.Agent.retransmits ))
          (0, 0, 0)
          (Collect.Deploy.agents deploy)
      in
      let delivered =
        Collect.Collector.delivered_records (Collect.Deploy.collector deploy)
      in
      let p50, p90, p99 = lag_of reg in
      (* Byte-identical to the offline correlator run over this same run's
         logs: the acceptance criterion of the collection plane. *)
      let online_paths = Core.Online.paths (Collect.Deploy.online deploy) in
      let cfg = Correlator.config ~transform:outcome.S.transform () in
      let offline = Correlator.correlate cfg outcome.S.logs in
      let sigs cags = List.sort compare (List.map Pattern.signature_of cags) in
      let identical = sigs online_paths = sigs offline.Correlator.cags in
      Report.add_row t
        [
          Report.cell_int batch;
          Report.cell_int frames;
          Report.cell_float ~decimals:1
            (float_of_int bytes /. float_of_int (max 1 delivered));
          Report.cell_int retransmits;
          Report.cell_float ~decimals:2 (p50 *. 1e3);
          Report.cell_float ~decimals:2 (p90 *. 1e3);
          Report.cell_float ~decimals:2 (p99 *. 1e3);
          (if identical then "yes" else "NO");
        ];
      record_int ~figure:"collect" (Printf.sprintf "frames_batch%d" batch) frames;
      record_float ~figure:"collect"
        (Printf.sprintf "bytes_per_record_batch%d" batch)
        (float_of_int bytes /. float_of_int (max 1 delivered));
      if batch = default_batch then headline := Some (outcome, p50, p90, p99, identical))
    batches;
  Report.print t;
  let outcome, p50, p90, p99, identical = Option.get !headline in
  let c =
    Report.table
      ~title:"ext-12: shipping overhead, in-band vs out-of-band"
      ~columns:[ "mode"; "throughput rps"; "mean rt ms" ]
  in
  Report.add_row c
    [
      "out-of-band";
      Report.cell_float ~decimals:1 baseline.S.summary.Metrics.throughput_rps;
      Report.cell_float ~decimals:2 (baseline.S.summary.Metrics.mean_rt_s *. 1e3);
    ];
  Report.add_row c
    [
      Printf.sprintf "in-band (batch %d)" default_batch;
      Report.cell_float ~decimals:1 outcome.S.summary.Metrics.throughput_rps;
      Report.cell_float ~decimals:2 (outcome.S.summary.Metrics.mean_rt_s *. 1e3);
    ];
  Report.print c;
  record_float ~figure:"collect" "lag_p50_ms" (p50 *. 1e3);
  record_float ~figure:"collect" "lag_p90_ms" (p90 *. 1e3);
  record_float ~figure:"collect" "lag_p99_ms" (p99 *. 1e3);
  record_scalar ~figure:"collect" "identical" (Json.Bool identical);
  record_float ~figure:"collect" "throughput_out_of_band_rps"
    baseline.S.summary.Metrics.throughput_rps;
  record_float ~figure:"collect" "throughput_in_band_rps"
    outcome.S.summary.Metrics.throughput_rps;
  record_float ~figure:"collect" "mean_rt_out_of_band_ms"
    (baseline.S.summary.Metrics.mean_rt_s *. 1e3);
  record_float ~figure:"collect" "mean_rt_in_band_ms"
    (outcome.S.summary.Metrics.mean_rt_s *. 1e3)

(* ---- ext-16: hierarchical scale-out correlation ---- *)

let bench_hierarchy () =
  let module P = Collect.Hierarchy in
  (* The §5.3.3 noisy environment: unfilterable db-side chatter is exactly
     what the per-level reduction exists for, so the cluster carries it. *)
  let noisy base = { base with S.noise = S.Paper_noise { db_connections = 2 } } in
  let cluster =
    if !quick then
      { S.base = noisy { S.default with S.clients = 12; time_scale = 0.02; seed = 5 };
        S.replicas = 4 }
    else { S.default_cluster with S.base = noisy S.default_cluster.S.base }
  in
  let shards = min P.default_config.P.shards cluster.S.replicas in
  let plane =
    P.create ~telemetry:(Telemetry.Registry.create ())
      ~config:{ P.default_config with P.shards }
      cluster
  in
  let co = S.run_cluster ~before_replica:(P.install plane) cluster in
  let report = P.finish plane in
  (* Flat-funnel baseline: the same cluster re-run with raw (Deploy) agents;
     the sum of their shipped bytes is what a single flat root would have to
     ingest over the wire. *)
  let flat_bytes =
    let reg = Telemetry.Registry.create () in
    let deploys = ref [] in
    let (_ : S.cluster_outcome) =
      S.run_cluster
        ~before_replica:(fun _ svc ->
          deploys := Collect.Deploy.install ~telemetry:reg svc :: !deploys)
        ~after_replica:(fun _ _ -> Collect.Deploy.finish (List.hd !deploys))
        cluster
    in
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun acc a -> acc + (Collect.Agent.stats a).Collect.Agent.bytes_shipped)
          acc (Collect.Deploy.agents d))
      0 !deploys
  in
  let raw_bytes =
    String.length (Trace.Binary_format.encode_native (Trace.Arena.of_collection co.S.all_logs))
  in
  let mono =
    let cfg = Correlator.config ~transform:co.S.cluster_transform () in
    Correlator.correlate cfg co.S.all_logs
  in
  let identical = String.equal report.P.digest (Core.Hierarchy.digest_result mono) in
  let flat = float_of_int flat_bytes in
  let level0_reduction = flat /. float_of_int (max 1 report.P.agent_bytes_shipped) in
  let root_reduction = flat /. float_of_int (max 1 report.P.root_ingest_bytes) in
  let t =
    Report.table
      ~title:
        (Printf.sprintf
           "ext-16: hierarchical correlation tree (%d replicas / %d hosts, %d shards, \
            noisy)"
           cluster.S.replicas (List.length co.S.hosts) shards)
      ~columns:[ "feed"; "bytes"; "vs flat funnel" ]
  in
  Report.add_row t
    [ "flat funnel -> root (raw frames)"; Report.cell_int flat_bytes; "1.0x" ];
  Report.add_row t
    [
      "level 0 -> 1 (partial frames)";
      Report.cell_int report.P.agent_bytes_shipped;
      Printf.sprintf "%.1fx" level0_reduction;
    ];
  Report.add_row t
    [
      "level 1 -> root (PTP1 paths)";
      Report.cell_int report.P.root_ingest_bytes;
      Printf.sprintf "%.1fx" root_reduction;
    ];
  Report.add_row t
    [
      "(offline archive, for scale)";
      Report.cell_int raw_bytes;
      Printf.sprintf "%.1fx" (flat /. float_of_int (max 1 raw_bytes));
    ];
  Report.print t;
  let s =
    Report.table
      ~title:"ext-16: per-shard ownership (no component sees the full feed)"
      ~columns:[ "shard"; "replicas"; "paths"; "ingest records"; "PTP1 bytes" ]
  in
  List.iter
    (fun (sh : P.shard_report) ->
      Report.add_row s
        [
          Report.cell_int sh.P.shard_id;
          String.concat "," (List.map string_of_int sh.P.shard_replicas);
          Report.cell_int sh.P.paths_finished;
          Report.cell_int sh.P.ingest_records;
          Report.cell_int sh.P.output_bytes;
        ])
    report.P.shard_reports;
  Report.print s;
  Printf.printf
    "root splice vs monolithic correlator over the intact feed: %s (%d paths, %d \
     deformed)\n\n"
    (if identical then "byte-identical digests" else "DIGESTS DIFFER")
    (List.length report.P.finished)
    (List.length report.P.deformed);
  record_int ~figure:"hierarchy" "replicas" cluster.S.replicas;
  record_int ~figure:"hierarchy" "hosts" (List.length co.S.hosts);
  record_int ~figure:"hierarchy" "shards" shards;
  record_int ~figure:"hierarchy" "paths" (List.length report.P.finished);
  record_int ~figure:"hierarchy" "flat_funnel_bytes" flat_bytes;
  record_int ~figure:"hierarchy" "agent_shipped_bytes" report.P.agent_bytes_shipped;
  record_int ~figure:"hierarchy" "root_ingest_bytes" report.P.root_ingest_bytes;
  record_float ~figure:"hierarchy" "level0_reduction" level0_reduction;
  record_float ~figure:"hierarchy" "root_reduction" root_reduction;
  record_scalar ~figure:"hierarchy" "identical" (Json.Bool identical)

(* ---- ext-8: trace format sizes ---- *)

let bench_formats () =
  let t =
    Report.table ~title:"ext-8: trace log formats (text vs binary)"
      ~columns:
        [ "clients"; "activities"; "text bytes"; "binary bytes"; "ratio"; "decode ok" ]
  in
  List.iter
    (fun clients ->
      let outcome = run { (base_spec ()) with S.clients } in
      let collection = outcome.S.logs in
      let text =
        List.fold_left
          (fun acc log ->
            List.fold_left
              (fun acc a -> acc + String.length (Trace.Raw_format.to_line a) + 1)
              acc (Trace.Log.to_list log))
          0 collection
      in
      let encoded = Trace.Binary_format.encode_native (Trace.Arena.of_collection collection) in
      let ok =
        match Trace.Binary_format.decode_native encoded with
        | Ok loaded -> Trace.Arena.total loaded = Trace.Log.total collection
        | Error _ -> false
      in
      Report.add_row t
        [
          Report.cell_int clients;
          Report.cell_int outcome.S.activity_count;
          Report.cell_int text;
          Report.cell_int (String.length encoded);
          Report.cell_float ~decimals:1 (float_of_int text /. float_of_int (String.length encoded));
          (if ok then "yes" else "NO");
        ])
    (if !quick then [ 100 ] else [ 100; 300; 500 ]);
  Report.print t

(* ---- ext-9: segmented store (lib/store) ---- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let top_names n patterns =
  List.filteri (fun i _ -> i < n) patterns |> List.map (fun p -> p.Pattern.name)

let bench_store () =
  let clients = if !quick then 150 else 300 in
  let spec = { (base_spec ()) with S.clients } in
  let outcome = run spec in
  let collection = outcome.S.logs in
  let correlate_cfg = Correlator.config ~transform:outcome.S.transform () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pt-bench-store-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* Ingest throughput: stream the run into segments, no reduction.
     Arenas are pre-built outside the timer, the shape in which a live
     collector feed already arrives. *)
  let arenas = Trace.Arena.of_collection collection in
  (* Best of five passes: the first pass pays cold caches and
     allocator growth the steady-state ingest path never sees again, and
     the host's scheduling jitter swamps a single pass. *)
  let wstats, ingest_s =
    let stats = ref None and secs = ref infinity in
    for _ = 1 to 5 do
      rm_rf dir;
      (* Settle the heap outside the timed region: the scenario build above
         leaves major-GC debt that would otherwise be collected mid-pass. *)
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let writer = Store.Writer.create ~roll_records:4096 ~dir () in
      Store.Writer.ingest_native writer arenas;
      let wstats = Store.Writer.close writer in
      let ingest_s = Unix.gettimeofday () -. t0 in
      if ingest_s < !secs then begin
        secs := ingest_s;
        stats := Some wstats
      end
    done;
    (Option.get !stats, !secs)
  in
  let native_per_s = float_of_int wstats.Store.Writer.records_in /. ingest_s in
  let native_mb_per_s = float_of_int wstats.Store.Writer.bytes_out /. ingest_s /. 1048576.0 in
  let t_ingest =
    Report.table ~title:"ext-9a: store ingest throughput (no reduction, best of 5 passes)"
      ~columns:[ "path"; "records"; "segments"; "bytes"; "seconds"; "records/s"; "MB/s" ]
  in
  Report.add_row t_ingest
    [
      "native arenas";
      Report.cell_int wstats.Store.Writer.records_in;
      Report.cell_int wstats.Store.Writer.segments;
      Report.cell_int wstats.Store.Writer.bytes_out;
      Report.cell_float ~decimals:4 ingest_s;
      Report.cell_float ~decimals:0 native_per_s;
      Report.cell_float ~decimals:2 native_mb_per_s;
    ];
  Report.print t_ingest;
  record_int ~figure:"store" "ingest_records" wstats.Store.Writer.records_in;
  record_int ~figure:"store" "ingest_segments" wstats.Store.Writer.segments;
  record_float ~figure:"store" "ingest_records_per_s" native_per_s;
  record_float ~figure:"store" "ingest_mb_per_s" native_mb_per_s;
  (* Query latency: whole store vs a narrow window the manifest can prune. *)
  let manifest =
    match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e
  in
  let min_ts, max_ts =
    List.fold_left
      (fun (lo, hi) (m : Store.Segment.meta) ->
        (min lo m.Store.Segment.min_ts_ns, max hi m.Store.Segment.max_ts_ns))
      (max_int, min_int) manifest.Store.Manifest.segments
  in
  let span = max_ts - min_ts in
  let narrow =
    Store.Query.predicate
      ~since_ns:(min_ts + (span * 45 / 100))
      ~until_ns:(min_ts + (span * 55 / 100))
      ()
  in
  let query p =
    match Store.Query.run_native ~dir p with Ok r -> r | Error e -> failwith e
  in
  let _, full_stats = query Store.Query.all in
  let _, narrow_stats = query narrow in
  let t_query =
    Report.table ~title:"ext-9b: query latency (manifest pruning)"
      ~columns:[ "query"; "segments scanned"; "records returned"; "ms" ]
  in
  List.iter
    (fun (name, (st : Store.Query.stats)) ->
      Report.add_row t_query
        [
          name;
          Printf.sprintf "%d/%d" st.Store.Query.segments_scanned st.segments_total;
          Report.cell_int st.records_returned;
          Report.cell_float ~decimals:3 (st.seconds *. 1e3);
        ])
    [ ("full range", full_stats); ("mid 10% window", narrow_stats) ];
  Report.print t_query;
  record_float ~figure:"store" "query_full_ms" (full_stats.Store.Query.seconds *. 1e3);
  record_float ~figure:"store" "query_narrow_ms" (narrow_stats.Store.Query.seconds *. 1e3);
  record_int ~figure:"store" "query_narrow_segments_scanned"
    narrow_stats.Store.Query.segments_scanned;
  record_int ~figure:"store" "query_segments_total" narrow_stats.Store.Query.segments_total;
  (* Reduction grid: bytes ratio vs top-3 pattern fidelity, and whether
     every kept request re-correlates to its original path (each vertex's
     kind, host, timestamp and size). *)
  let baseline = Correlator.correlate correlate_cfg collection in
  let baseline_top = top_names 3 (Pattern.classify baseline.Correlator.cags) in
  let fingerprint cag =
    List.map
      (fun (v : Core.Cag.vertex) ->
        let a = v.Core.Cag.activity in
        ( Trace.Activity.kind_to_code a.Trace.Activity.kind,
          a.Trace.Activity.context.Trace.Activity.host,
          ST.to_ns a.Trace.Activity.timestamp,
          a.Trace.Activity.message.size ))
      (Core.Cag.vertices cag)
  in
  let originals = Hashtbl.create 1024 in
  List.iter (fun c -> Hashtbl.replace originals (fingerprint c) ()) baseline.Correlator.cags;
  let t_red =
    Report.table
      ~title:"ext-9c: request-level reduction — byte ratio vs top-3 pattern fidelity"
      ~columns:
        [
          "policy";
          "requests kept";
          "paths identical";
          "bytes";
          "ratio";
          "top-3 ranks";
          "reduce (s)";
        ]
  in
  List.iter
    (fun policy_s ->
      let policy =
        match Store.Policy.of_string policy_s with Ok p -> p | Error e -> failwith e
      in
      let t0 = Unix.gettimeofday () in
      let reduced, rstats = Store.Reduce.apply ~correlate:correlate_cfg ~policy arenas in
      let reduce_s = Unix.gettimeofday () -. t0 in
      let result = Correlator.correlate_arena correlate_cfg reduced in
      let top = top_names 3 (Pattern.classify result.Correlator.cags) in
      let fidelity =
        List.length top = List.length baseline_top
        && List.for_all2 String.equal top baseline_top
      in
      let identical =
        List.length
          (List.filter (fun c -> Hashtbl.mem originals (fingerprint c)) result.Correlator.cags)
      in
      let ratio = Store.Reduce.ratio rstats in
      Report.add_row t_red
        [
          policy_s;
          Printf.sprintf "%d/%d" rstats.Store.Reduce.requests_kept
            rstats.Store.Reduce.requests_total;
          Report.cell_int identical;
          Report.cell_int rstats.Store.Reduce.bytes_after;
          Printf.sprintf "%.2fx" ratio;
          (if fidelity then "kept" else "CHANGED");
          Report.cell_float ~decimals:4 reduce_s;
        ];
      let slug =
        String.map (function 'a' .. 'z' | '0' .. '9' as c -> c | _ -> '_') policy_s
      in
      record_float ~figure:"store" (Printf.sprintf "reduction_%s_ratio" slug) ratio;
      record_int ~figure:"store"
        (Printf.sprintf "reduction_%s_top3_kept" slug)
        (if fidelity then 1 else 0);
      record_int ~figure:"store"
        (Printf.sprintf "reduction_%s_requests_kept" slug)
        rstats.Store.Reduce.requests_kept;
      record_int ~figure:"store" (Printf.sprintf "reduction_%s_paths_identical" slug) identical)
    [ "causal"; "causal,sample=0.5@1"; "causal,sample=0.25@1"; "causal,sample=0.1@1" ];
  Report.print t_red

(* ---- ext-11: domain-parallel sharded correlation ---- *)

let bench_parallel () =
  (* Low concurrency leaves request-quiescent gaps in the feed — the
     regime where epoch sharding engages. Heavily overlapped workloads
     (accuracy/fig-9 grids) collapse to one epoch by design. *)
  let clients = if !quick then 6 else 10 in
  let spec = { (base_spec ()) with S.clients } in
  let outcome = run spec in
  let cfg = Correlator.config ~transform:outcome.S.transform () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, serial_s = time (fun () -> Correlator.correlate cfg outcome.S.logs) in
  let serial_digest = Core.Shard.digest serial in
  (* The native path starts from packed arenas — the shape the collection
     plane delivers — so its serial row shows the binary hot path's win
     and its sharded rows must still digest-match the record-path serial. *)
  let arenas = Trace.Arena.of_collection outcome.S.logs in
  let native_serial, native_serial_s =
    time (fun () -> Correlator.correlate_arena cfg arenas)
  in
  let native_serial_equal =
    String.equal (Core.Shard.digest native_serial) serial_digest
  in
  (* The plan each sharded row executes; jobs 1 is one serial pass. *)
  let epochs_at jobs =
    if jobs <= 1 then 1
    else Array.length (Core.Shard.epoch_ranges (Core.Shard.plan ~jobs cfg arenas))
  in
  let cut_candidates = Core.Shard.cut_candidates (Core.Shard.plan ~jobs:2 cfg arenas) in
  let t =
    Report.table
      ~title:
        (Printf.sprintf
           "ext-11: sharded correlation speedup (%d cut candidates; host has %d domain(s))"
           cut_candidates
           (Domain.recommended_domain_count ()))
      ~columns:[ "path"; "jobs"; "epochs"; "seconds"; "speedup vs serial"; "output vs serial" ]
  in
  let verdict equal = if equal then "identical" else "DIVERGED" in
  let diverged = ref (not native_serial_equal) in
  Report.add_row t
    [ "records"; "serial"; "1"; Report.cell_float ~decimals:4 serial_s; "1.00"; "reference" ];
  Report.add_row t
    [
      "native";
      "serial";
      "1";
      Report.cell_float ~decimals:4 native_serial_s;
      Report.cell_float ~decimals:2 (serial_s /. native_serial_s);
      verdict native_serial_equal;
    ];
  let grid =
    [ 1; 2; 4 ]
    @ (match !jobs_override with Some j when not (List.mem j [ 1; 2; 4 ]) -> [ j ] | _ -> [])
  in
  List.iter
    (fun jobs ->
      let epochs = epochs_at jobs in
      let result, secs =
        time (fun () ->
            Core.Shard.correlate_arena ~jobs cfg (Trace.Arena.of_collection outcome.S.logs))
      in
      let equal = String.equal (Core.Shard.digest result) serial_digest in
      let nresult, nsecs =
        time (fun () -> Core.Shard.correlate_arena ~jobs cfg arenas)
      in
      let nequal = String.equal (Core.Shard.digest nresult) serial_digest in
      if not (equal && nequal) then diverged := true;
      Report.add_row t
        [
          "records";
          Report.cell_int jobs;
          Report.cell_int epochs;
          Report.cell_float ~decimals:4 secs;
          Report.cell_float ~decimals:2 (serial_s /. secs);
          verdict equal;
        ];
      Report.add_row t
        [
          "native";
          Report.cell_int jobs;
          Report.cell_int epochs;
          Report.cell_float ~decimals:4 nsecs;
          Report.cell_float ~decimals:2 (serial_s /. nsecs);
          verdict nequal;
        ];
      record_int ~figure:"parallel" (Printf.sprintf "epochs_jobs_%d" jobs) epochs;
      record_float ~figure:"parallel" (Printf.sprintf "seconds_jobs_%d" jobs) secs;
      record_float ~figure:"parallel"
        (Printf.sprintf "speedup_jobs_%d" jobs)
        (serial_s /. secs);
      record_int ~figure:"parallel"
        (Printf.sprintf "serial_equal_jobs_%d" jobs)
        (if equal then 1 else 0);
      record_float ~figure:"parallel" (Printf.sprintf "native_seconds_jobs_%d" jobs) nsecs;
      record_int ~figure:"parallel"
        (Printf.sprintf "native_serial_equal_jobs_%d" jobs)
        (if nequal then 1 else 0))
    grid;
  Report.print t;
  record_float ~figure:"parallel" "seconds_serial" serial_s;
  record_float ~figure:"parallel" "native_seconds_serial" native_serial_s;
  record_int ~figure:"parallel" "native_serial_equal" (if native_serial_equal then 1 else 0);
  record_int ~figure:"parallel" "cut_candidates" cut_candidates;
  record_int ~figure:"parallel" "host_domains" (Domain.recommended_domain_count ());
  if !diverged then begin
    prerr_endline "parallel: sharded output DIVERGED from serial";
    check_failed := true
  end

(* ---- ext: streaming diagnosis scored across the fault matrix ---- *)

let bench_diagnose () =
  let clients = if !quick then 60 else 150 in
  let scale = !time_scale *. if !quick then 0.5 else 1.0 in
  let cases =
    [
      ("control", None);
      ("ejb-delay", Some Faults.ejb_delay);
      ("db-lock", Some Faults.database_lock);
      ("ejb-network", Some Faults.ejb_network);
    ]
  in
  let t =
    Report.table
      ~title:
        (Printf.sprintf
           "ext-13: streaming diagnosis over the in-band feed, fault injected mid-run \
            (%d clients)"
           clients)
      ~columns:
        [ "case"; "paths"; "verdicts"; "first culprit"; "correct"; "ttd (s)"; "false alarms" ]
  in
  let correct = ref 0 in
  let faulted = ref 0 in
  List.iter
    (fun (label, fault) ->
      let spec =
        {
          (base_spec ()) with
          S.name = label;
          clients;
          time_scale = scale;
          faults = Option.to_list fault;
        }
      in
      let reg = Telemetry.Registry.create () in
      let r = Diagnose.Live.run ~telemetry:reg spec in
      let s = r.Diagnose.Live.score in
      (match fault with
      | Some _ ->
          incr faulted;
          if s.Diagnose.Verdict.correct then incr correct
      | None -> ());
      Report.add_row t
        [
          label;
          Report.cell_int r.Diagnose.Live.paths_fed;
          Report.cell_int s.Diagnose.Verdict.verdicts_total;
          Option.value s.Diagnose.Verdict.first_culprit ~default:"-";
          (if s.Diagnose.Verdict.correct then "yes" else "NO");
          (match s.Diagnose.Verdict.time_to_detection_s with
          | Some ttd -> Report.cell_float ~decimals:1 ttd
          | None -> "-");
          Report.cell_int s.Diagnose.Verdict.false_alarms;
        ];
      record_int ~figure:"diagnose"
        (Printf.sprintf "false_alarms_%s" label)
        s.Diagnose.Verdict.false_alarms;
      record_int ~figure:"diagnose"
        (Printf.sprintf "correct_%s" label)
        (if s.Diagnose.Verdict.correct then 1 else 0);
      match s.Diagnose.Verdict.time_to_detection_s with
      | Some ttd -> record_float ~figure:"diagnose" (Printf.sprintf "ttd_s_%s" label) ttd
      | None -> ())
    cases;
  Report.print t;
  record_float ~figure:"diagnose" "accuracy"
    (float_of_int !correct /. float_of_int (max 1 !faulted))

(* ---- ext-14: single-file trace bundles (lib/bundle) ---- *)

(* The offline diagnose culprit (§5.4): `bundle diff` must blame the
   same subject from the packed profiles alone. *)
let diagnose_culprit baseline_result fault_result =
  let profiles (r : Correlator.result) = Core.Aggregate.profiles_of_cags r.Correlator.cags in
  match
    Core.Analysis.compare_runs ~baseline:(profiles baseline_result)
      ~observed:(profiles fault_result) ()
  with
  | Error _ -> None
  | Ok pairs ->
      Option.map
        (fun (s : Core.Analysis.suspect) -> Core.Analysis.subject_label s.Core.Analysis.subject)
        (Core.Analysis.culprit pairs)

let bench_bundle () =
  let clients = if !quick then 100 else 200 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pt-bench-bundle-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let control_spec = { (base_spec ()) with S.name = "control"; clients } in
  let control = run control_spec in
  let config = Correlator.config ~transform:control.S.transform () in
  let pack name spec =
    let outcome = run spec in
    let path = Filename.concat dir (name ^ ".ptz") in
    let arenas = Store.Query.merge_native [ Trace.Arena.of_collection outcome.S.logs ] in
    let r = Core.Shard.correlate_arena config arenas in
    match
      Bundle.Pack.pack ~roll_records:4096 ~config
        ~source:(`Run (arenas, r.Correlator.cags, r.Correlator.deformed)) ~path ()
    with
    | Error e -> failwith e
    | Ok summary -> (path, summary)
  in
  let control_path, summary = pack "control" control_spec in
  (* Bundle size vs the same records as a raw store (pack speed is the
     pipeline benchmark's pack layer). *)
  let overhead =
    float_of_int summary.Bundle.Pack.bytes
    /. float_of_int (max 1 summary.Bundle.Pack.store_bytes)
  in
  let t_pack =
    Report.table ~title:"ext-14a: bundle pack (control run)"
      ~columns:
        [ "records"; "paths"; "back-links"; "bundle bytes"; "store bytes"; "overhead" ]
  in
  Report.add_row t_pack
    [
      Report.cell_int summary.Bundle.Pack.records;
      Report.cell_int summary.Bundle.Pack.cags;
      Report.cell_int summary.Bundle.Pack.links;
      Report.cell_int summary.Bundle.Pack.bytes;
      Report.cell_int summary.Bundle.Pack.store_bytes;
      Printf.sprintf "%.2fx" overhead;
    ];
  Report.print t_pack;
  record_int ~figure:"bundle" "pack_records" summary.Bundle.Pack.records;
  record_int ~figure:"bundle" "pack_links" summary.Bundle.Pack.links;
  record_int ~figure:"bundle" "unresolved_links" summary.Bundle.Pack.unresolved_links;
  record_int ~figure:"bundle" "bundle_bytes" summary.Bundle.Pack.bytes;
  record_float ~figure:"bundle" "store_overhead_ratio" overhead;
  (* Cold open: walk a request and query the embedded store from scratch. *)
  let cold f =
    let t0 = Unix.gettimeofday () in
    (match Bundle.Reader.open_file control_path with
    | Error e -> failwith e
    | Ok reader -> f reader);
    Unix.gettimeofday () -. t0
  in
  let walk_s =
    cold (fun reader ->
        match Bundle.Walk.view reader () with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  let query_s =
    cold (fun reader ->
        match Bundle.Reader.query reader Store.Query.all with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  record_float ~figure:"bundle" "cold_walk_ms" (walk_s *. 1e3);
  record_float ~figure:"bundle" "cold_query_ms" (query_s *. 1e3);
  (* Fault matrix: `bundle diff control fault` must blame the same subject
     as the offline diagnose pipeline. *)
  let t_diff =
    Report.table
      ~title:"ext-14b: bundle diff vs diagnose across the fault matrix"
      ~columns:
        [ "case"; "bundle bytes"; "diff (s)"; "diff culprit"; "diagnose culprit"; "agree" ]
  in
  let control_result = correlate control_spec in
  List.iter
    (fun (label, fault) ->
      let spec =
        { (base_spec ()) with S.name = label; clients; faults = [ fault ] }
      in
      let path, fsummary = pack label spec in
      let t0 = Unix.gettimeofday () in
      let diff_culprit =
        match (Bundle.Reader.open_file control_path, Bundle.Reader.open_file path) with
        | Ok a, Ok b -> (
            match Bundle.Diff.diff a b with
            | Ok d ->
                Option.map
                  (fun (s : Core.Analysis.suspect) ->
                    Core.Analysis.subject_label s.Core.Analysis.subject)
                  d.Bundle.Diff.culprit
            | Error e -> failwith e)
        | Error e, _ | _, Error e -> failwith e
      in
      let diff_s = Unix.gettimeofday () -. t0 in
      let expected = diagnose_culprit control_result (correlate spec) in
      let agree =
        match (diff_culprit, expected) with
        | Some a, Some b -> String.equal a b
        | None, None -> true
        | _ -> false
      in
      Report.add_row t_diff
        [
          label;
          Report.cell_int fsummary.Bundle.Pack.bytes;
          Report.cell_float ~decimals:4 diff_s;
          Option.value diff_culprit ~default:"-";
          Option.value expected ~default:"-";
          (if agree then "yes" else "NO");
        ];
      record_float ~figure:"bundle" (Printf.sprintf "cold_diff_ms_%s" label) (diff_s *. 1e3);
      record_int ~figure:"bundle"
        (Printf.sprintf "diff_agrees_%s" label)
        (if agree then 1 else 0))
    [
      ("ejb-delay", Faults.ejb_delay);
      ("db-lock", Faults.database_lock);
      ("ejb-network", Faults.ejb_network);
    ];
  Report.print t_diff

(* ---- mesh: adversarial scenario presets ---- *)

let bench_mesh () =
  (* The presets are deterministic and quick at any --scale, so the same
     numbers land in BENCH_mesh.json on every machine; test_mesh holds
     every preset to them. *)
  let t =
    Report.table
      ~title:
        (Printf.sprintf "ext-17: mesh scenario presets (seed %d)" Mesh.Presets.default_seed)
      ~columns:[ "preset"; "accuracy"; "fp"; "paths"; "patterns"; "retries"; "records" ]
  in
  List.iter
    (fun name ->
      let r = Mesh.Presets.run name in
      Report.add_row t
        [
          name;
          Report.cell_float ~decimals:4 r.Mesh.Presets.accuracy;
          Report.cell_int r.false_positives;
          Report.cell_int r.paths;
          Report.cell_int r.patterns;
          Report.cell_int r.retries;
          Report.cell_int r.records;
        ];
      record_float ~figure:"mesh" ("accuracy_" ^ name) r.accuracy;
      if String.equal name "control" then begin
        record_int ~figure:"mesh" "fp_control" r.false_positives;
        record_int ~figure:"mesh" "patterns_control" r.patterns
      end;
      if String.equal name "cascading_failure" then
        record_int ~figure:"mesh" "retries_cascading" r.retries)
    Mesh.Presets.names;
  Report.print t

(* ---- driver ---- *)

let all_figures =
  [
    ("accuracy", bench_accuracy);
    ("8", bench_fig8);
    ("9", bench_fig9);
    ("10", bench_fig10_11);
    ("12", bench_fig12_13);
    ("14", bench_fig14);
    ("15", bench_fig15);
    ("16", bench_fig16);
    ("17", bench_fig17);
    ("baseline", bench_baseline);
    ("loss", bench_loss);
    ("ablation", bench_ablation);
    ("formats", bench_formats);
    ("skewfix", bench_skewfix);
    ("online", bench_online);
    ("degraded", bench_degraded);
    ("collect", bench_collect);
    ("hierarchy", bench_hierarchy);
    ("mesh", bench_mesh);
    ("store", bench_store);
    ("parallel", bench_parallel);
    ("diagnose", bench_diagnose);
    ("bundle", bench_bundle);
  ]

let resolve = function
  | "11" -> Some ("10", bench_fig10_11)
  | "13" -> Some ("12", bench_fig12_13)
  | id -> List.find_opt (fun (name, _) -> String.equal name id) all_figures

(* A mistyped flag must not silently turn a gate off: exit 2 before any
   figure runs. *)
let usage_error msg =
  Printf.eprintf "%s\n" msg;
  exit 2

let () =
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--figure" :: id :: rest ->
        (match resolve id with
        | Some f -> selected := f :: !selected
        | None when String.equal id "all" -> selected := List.rev all_figures @ !selected
        | None -> usage_error (Printf.sprintf "unknown figure %S" id));
        parse rest
    | "--scale" :: s :: rest ->
        time_scale := float_of_string s;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--jobs" :: j :: rest ->
        jobs_override := Some (max 1 (int_of_string j));
        parse rest
    | "--telemetry" :: file :: rest ->
        telemetry_out := Some file;
        parse rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--gate" :: file :: rest ->
        gate_file := Some file;
        parse rest
    | "--telemetry-format" :: fmt :: rest ->
        (match List.assoc_opt fmt Core.Telemetry_report.formats with
        | Some f -> telemetry_format := f
        | None -> usage_error (Printf.sprintf "unknown telemetry format %S (prom|json|report)" fmt));
        parse rest
    | arg :: _ -> usage_error (Printf.sprintf "unknown argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let figures =
    match List.rev !selected with
    | [] -> all_figures
    | fs ->
        let seen = Hashtbl.create 8 in
        List.filter
          (fun (name, _) ->
            if Hashtbl.mem seen name then false
            else begin
              Hashtbl.replace seen name ();
              true
            end)
          fs
  in
  Printf.printf
    "PreciseTracer evaluation harness (time_scale %.2f%s). Shapes are comparable to the paper; \
     absolute numbers are not (simulated substrate).\n\n"
    !time_scale
    (if !quick then ", quick grids" else "");
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      Telemetry.Registry.(
        time default ~labels:[ ("figure", name) ] "pt_bench_figure_seconds" f);
      figure_seconds := (name, Unix.gettimeofday () -. t0) :: !figure_seconds)
    figures;
  (match !json_out with None -> () | Some file -> emit_json file);
  (match !gate_file with None -> () | Some file -> run_gate file);
  (match !telemetry_out with
  | None -> ()
  | Some file ->
      let body =
        Core.Telemetry_report.export !telemetry_format Telemetry.Registry.(snapshot default)
      in
      if String.equal file "-" then print_string body
      else begin
        match open_out file with
        | oc ->
            Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
            Printf.printf "telemetry self-profile written to %s\n" file
        | exception Sys_error msg ->
            Printf.eprintf "cannot write telemetry: %s\n" msg;
            exit 1
      end);
  if !check_failed then exit 1
