(* ptbench: the pipeline benchmark.

     ptbench --workload W --seed S --seconds N --trace 0|1 [--json FILE] [--spans FILE]
     ptbench --smoke

   One run generates the workload's inputs in a [gen] subprocess, then
   measures in a fresh [run] subprocess that loads them, warms up, times
   the workload's job for N seconds with tracing off and, with --trace 1,
   makes one traced pass through every layer. Set-up (generator, load,
   warm-up) is repeated in fresh processes and reported as the median.
   The last line of standard output is one JSON object — "correct",
   "attempted", "failed", "metrics" — with the end-to-end metrics under
   --trace 0 and the per-layer metrics under --trace 1. The exit code is
   non-zero when any output check fails. *)

module Json = Core.Json

let now = Unix.gettimeofday

let end_to_end = [ "setup_s"; "records_per_s"; "peak_heap_mb"; "accuracy" ]

(* ---- arguments ---- *)

let mode = ref "measure"
let workload = ref ""
let seed = ref (-1)
let seconds = ref 10.0
let trace = ref 0
let json_out = ref ""
let spans_out = ref ""
let work = ref (Filename.concat "bench" (Filename.concat "pipeline" "_run"))
let smoke = ref false
let dir = ref ""
let result_out = ref ""
let setup_only = ref false

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workload.names);
    ("--seed", Arg.Set_int seed, "N input seed (default: the workload's own)");
    ("--seconds", Arg.Set_float seconds, "S how long the timed reps run (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
    ("--json", Arg.Set_string json_out, "FILE also write the full report as JSON");
    ("--spans", Arg.Set_string spans_out, "FILE where --trace 1 writes its trace-event JSON");
    ("--work", Arg.Set_string work, "DIR scratch directory (default bench/pipeline/_run)");
    ("--smoke", Arg.Set smoke, " every workload at ~1/50 size, all checks on");
    ("--dir", Arg.Set_string dir, "DIR input directory (gen, run)");
    ("--result", Arg.Set_string result_out, "FILE result file (run)");
    ("--setup-only", Arg.Set setup_only, " stop after set-up (run)");
  ]

let usage = "ptbench [gen|run] --workload NAME --seed N --seconds S --trace 0|1"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ptbench: " ^ s);
      exit 2)
    fmt

let the_workload () =
  match Workload.find !workload with
  | Some w -> w
  | None ->
      fail "unknown workload %S (expected one of %s)" !workload (String.concat ", " Workload.names)

let the_seed w = if !seed >= 0 then !seed else w.Workload.default_seed

let write_json path j = Workload.write_file path (Json.to_string ~indent:true j ^ "\n")
let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric_json m =
  Json.Obj
    [
      ("name", Json.String m.name);
      ("value", Json.Float m.value);
      ("unit", Json.String m.unit_);
      ("samples", Json.Int m.samples);
    ]

let metric_of_json j =
  match (Json.member "name" j, Json.member "value" j, Json.member "unit" j, Json.member "samples" j) with
  | Some (Json.String name), Some (Json.Float value), Some (Json.String unit_), Some (Json.Int samples)
    ->
      Some { name; value; unit_; samples }
  | _ -> None

(* ---- gen: simulate and write the inputs ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let gen () =
  let w = the_workload () in
  let seed = the_seed w in
  mkdir_p !dir;
  match Workload.generate w ~seed ~smoke:!smoke ~dir:!dir with
  | Ok m ->
      Printf.printf "gen %s seed %d: %d records, %d requests, %d hosts, max port %d\n%!"
        w.Workload.name seed m.Workload.records m.Workload.requests
        (List.length m.Workload.hosts) m.Workload.max_port
  | Error e -> fail "gen %s seed %d: %s" w.Workload.name seed e

(* ---- run: the measuring process ---- *)

let run () =
  let w = the_workload () in
  let t0 = now () in
  let p, warm =
    match Ledger.setup w ~dir:!dir with Ok r -> r | Error e -> fail "run %s: %s" w.Workload.name e
  in
  let setup = [ ("setup_s", Json.Float (now () -. t0)); ("peak_heap_mb", Json.Float (heap_mb ())) ] in
  if !setup_only then write_json !result_out (Json.Obj setup)
  else begin
    let inp = p.Ledger.inp in
    let meta = inp.Ledger.meta in
    let t = Ledger.tally () in
    (* The reference output is the offline job over the same input. Live
       output and the paths decoded from the bundle must be the same
       paths (see [Path_digest]). *)
    let reference =
      match w.Workload.kind with
      | Workload.Offline -> warm
      | Workload.Live | Workload.Capture -> Ledger.offline_job inp.Ledger.config inp.Ledger.bytes
    in
    let ordered = Ledger.ordered reference and canonical = Ledger.canonical reference in
    Ledger.check t "warm-up" (String.equal (Ledger.canonical warm) canonical);
    let verdict =
      Core.Accuracy.check ~tolerance:meta.Workload.tolerance ~ground_truth:inp.Ledger.gt
        warm.Ledger.finished
    in
    Ledger.check t "paths against the oracle"
      (verdict.Core.Accuracy.correct = verdict.Core.Accuracy.total_requests);
    (* The traced pass runs before the timed reps, so the process history
       it starts from — and with it every count it reports — does not
       depend on how many reps fit in the run. *)
    let traced =
      if !trace = 0 then None
      else begin
        let sp = Spans.create () in
        let r = Traced.run t p ~sp ~ordered ~canonical in
        Workload.write_file !spans_out (Spans.to_chrome_json sp);
        Some r
      end
    in
    let reps = Ledger.run_reps t ~seconds:!seconds ~min_reps:(if !smoke then 1 else 3) p in
    let best = List.fold_left Float.min infinity reps in
    let records = meta.Workload.records in
    let metrics =
      [
        {
          name = "records_per_s";
          value = float_of_int records /. best;
          unit_ = "records/s";
          samples = List.length reps;
        };
        { name = "accuracy"; value = verdict.Core.Accuracy.accuracy; unit_ = "ratio"; samples = 1 };
      ]
    in
    let layers =
      match traced with
      | None -> []
      | Some (ms, job_s) ->
          List.map
            (fun (name, value, unit_) -> { name; value; unit_; samples = 1 })
            (ms @ [ ("trace.overhead_ratio", job_s /. best, "ratio") ])
    in
    List.iter (fun e -> prerr_endline ("ptbench: FAILED " ^ e)) (List.rev t.Ledger.errors);
    write_json !result_out
      (Json.Obj
         (setup
         @ [
             ("ops", Json.Int t.Ledger.ops);
             ("failed", Json.Int t.Ledger.failed);
             ("errors", Json.List (List.map (fun e -> Json.String e) (List.rev t.Ledger.errors)));
             ("records", Json.Int records);
             ("requests", Json.Int meta.Workload.requests);
             ("hosts", Json.Int (List.length meta.Workload.hosts));
             ("max_port", Json.Int meta.Workload.max_port);
             ("rep_seconds", Json.List (List.map (fun r -> Json.Float r) reps));
             ("metrics", Json.List (List.map metric_json (metrics @ layers)));
           ]))
  end

(* ---- measure: one workload, one seed, orchestrated ---- *)

(* Run this executable again with [args] and wait for it. *)
let spawn args =
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "ptbench %s exited with %d" (List.hd args) n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "ptbench %s killed by signal %d" (List.hd args) n)

let command_output cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

let env () =
  [
    ("nproc", Json.String (command_output "nproc"));
    ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
    ("PT_JOBS", match Sys.getenv_opt "PT_JOBS" with Some v -> Json.String v | None -> Json.Null);
    ("ocaml_version", Json.String Sys.ocaml_version);
  ]

let ( let* ) = Result.bind

let number k j =
  match Json.member k j with
  | Some (Json.Float f) -> Ok f
  | _ -> Error ("ptbench run result: no " ^ k)

let int_field k j = match Json.member k j with Some (Json.Int i) -> i | _ -> 0

(* Set-up repeats in fresh processes, each a generator then a run that
   loads and warms up; only the last run goes on to measure. Every
   generation must write the same bytes. Returns the final run's result,
   the per-set-up seconds and peak heaps, and whether the inputs were
   identical. *)
let set_up w ~seed ~smoke ~seconds ~trace ~run_dir ~spans =
  let input = Filename.concat run_dir "input" in
  let common =
    [ "--workload"; w.Workload.name; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let setups = if smoke then 1 else 3 in
  let fingerprint () =
    Digest.to_hex (Digest.file (Workload.trace_file input))
    ^ Digest.to_hex (Digest.file (Workload.oracle_file input))
  in
  mkdir_p input;
  let rec go i acc =
    let result = Filename.concat run_dir (Printf.sprintf "result-%d.json" i) in
    let last = i = setups - 1 in
    let t0 = now () in
    let* () = spawn ([ "gen"; "--dir"; input ] @ common) in
    let gen_s = now () -. t0 in
    let print = fingerprint () in
    let* () =
      spawn
        ([ "run"; "--dir"; input; "--result"; result; "--seconds"; Printf.sprintf "%g" seconds;
           "--trace"; string_of_int trace; "--spans"; spans ]
        @ common
        @ if last then [] else [ "--setup-only" ])
    in
    let* j = Json.of_string (Workload.read_file result) in
    let* load_s = number "setup_s" j in
    let* heap = number "peak_heap_mb" j in
    let acc = (gen_s +. load_s, heap, print) :: acc in
    if not last then go (i + 1) acc
    else
      let samples = List.rev acc in
      let prints = List.map (fun (_, _, p) -> p) samples in
      Ok
        ( j,
          List.map (fun (s, _, _) -> s) samples,
          List.map (fun (_, h, _) -> h) samples,
          List.for_all (String.equal (List.hd prints)) prints )
  in
  go 0 []

let print_metric m = Printf.printf "  %-40s %16.6g %-13s (n=%d)\n" m.name m.value m.unit_ m.samples

(* Prints the report and the result line; returns whether every check
   passed, or [None] when a subprocess failed. *)
let measure w ~seed ~smoke ~seconds ~trace =
  let run_dir =
    Filename.concat !work (Printf.sprintf "%s-%d-%d" w.Workload.name seed (Unix.getpid ()))
  in
  let spans =
    if !spans_out <> "" then !spans_out
    else Filename.concat !work (Printf.sprintf "spans-%s-%d.json" w.Workload.name seed)
  in
  Ledger.rm_rf run_dir;
  mkdir_p run_dir;
  let outcome =
    Fun.protect
      ~finally:(fun () -> Ledger.rm_rf run_dir)
      (fun () -> set_up w ~seed ~smoke ~seconds ~trace ~run_dir ~spans)
  in
  match outcome with
  | Error e ->
      prerr_endline ("ptbench: " ^ e);
      None
  | Ok (j, setup_s, heaps, same_inputs) ->
      let n = List.length setup_s in
      let metrics =
        { name = "setup_s"; value = Ledger.median setup_s; unit_ = "s"; samples = n }
        :: { name = "peak_heap_mb"; value = Ledger.median heaps; unit_ = "MB"; samples = n }
        :: (match Json.member "metrics" j with
           | Some (Json.List l) -> List.filter_map metric_of_json l
           | _ -> [])
      in
      let ops = int_field "ops" j and failed = int_field "failed" j in
      let correct = failed = 0 && same_inputs && ops > 0 in
      if not same_inputs then prerr_endline "ptbench: FAILED generator output differs between set-ups";
      let env = env () in
      Printf.printf "%s seed %d: %d records, %d requests, %d hosts, max port %d\n" w.Workload.name seed
        (int_field "records" j) (int_field "requests" j) (int_field "hosts" j) (int_field "max_port" j);
      List.iter print_metric metrics;
      (match Json.member "rep_seconds" j with
      | Some (Json.List l) ->
          let reps = List.filter_map (function Json.Float f -> Some f | _ -> None) l in
          Printf.printf "  reps: %d, best %.4f s, median %.4f s\n" (List.length reps)
            (List.fold_left Float.min infinity reps) (Ledger.median reps)
      | _ -> ());
      Printf.printf "  setup_s samples: %s\n"
        (String.concat " " (List.map (Printf.sprintf "%.4f") setup_s));
      List.iter (fun (k, v) -> Printf.printf "  env %s=%s\n" k (Json.to_string v)) env;
      if !json_out <> "" then
        write_json !json_out
          (Json.Obj
             [
               ("workload", Json.String w.Workload.name);
               ("seed", Json.Int seed);
               ("seconds", Json.Float seconds);
               ("trace", Json.Int trace);
               ("env", Json.Obj env);
               ( "sizes",
                 Json.Obj
                   (List.map
                      (fun k -> (k, Json.Int (int_field k j)))
                      [ "records"; "requests"; "hosts"; "max_port" ]) );
               ("setup_s_samples", Json.List (List.map (fun s -> Json.Float s) setup_s));
               ("rep_seconds", Option.value (Json.member "rep_seconds" j) ~default:(Json.List []));
               ("correct", Json.Bool correct);
               ("ops", Json.Int ops);
               ("ops_failed", Json.Int failed);
               ("errors", Option.value (Json.member "errors" j) ~default:(Json.List []));
               ("metrics", Json.List (List.map metric_json metrics));
             ]);
      let selected = List.filter (fun m -> List.mem m.name end_to_end = (trace = 0)) metrics in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool correct);
                ("attempted", Json.Int ops);
                ("failed", Json.Int failed);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun m ->
                         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                       selected) );
              ]));
      Some correct

(* Every workload at smoke size, traced, so every check and every layer
   runs; the span file must parse as trace-event JSON. *)
let smoke_all () =
  let spans w = Filename.concat !work (Printf.sprintf "spans-%s.json" w.Workload.name) in
  let valid_spans path =
    match Json.of_string (Workload.read_file path) with
    | Ok j -> (
        match Json.member "traceEvents" j with Some (Json.List (_ :: _)) -> true | _ -> false)
    | Error _ -> false
  in
  let ok w =
    spans_out := spans w;
    match measure w ~seed:w.Workload.default_seed ~smoke:true ~seconds:0.0 ~trace:1 with
    | Some true when valid_spans (spans w) -> true
    | Some true ->
        prerr_endline ("ptbench: FAILED " ^ w.Workload.name ^ ": span file is not trace-event JSON");
        false
    | Some false | None -> false
  in
  if not (List.for_all ok Workload.all) then exit 1

let () =
  Arg.parse specs
    (function
      | ("gen" | "run") as m -> mode := m | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !mode with
  | "gen" -> gen ()
  | "run" -> run ()
  | _ when !smoke && !workload = "" -> smoke_all ()
  | _ -> (
      if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
      let w = the_workload () in
      match measure w ~seed:(the_seed w) ~smoke:!smoke ~seconds:!seconds ~trace:!trace with
      | Some true -> ()
      | Some false | None -> exit 1)
