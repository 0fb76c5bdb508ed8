(* The precisetracer command-line tool.

   Subcommands:
     simulate   run the simulated three-tier testbed, optionally saving
                per-node TCP_TRACE files or streaming a segmented store
     correlate  turn a directory of trace files (text, binary or a
                segmented store) into causal paths, scored against the
                oracle saved next to them
     evaluate   simulate + correlate + score against the oracle
     diagnose   compare a suspect configuration against a healthy baseline
                and print the suspected components
     store      ingest | query | compact | stat on segmented trace stores
     bundle     pack | info | walk | query | diff on single-file PTZ1
                recordings
     mesh       run a declarative microservice-mesh scenario preset
                end-to-end and score the correlator against its oracle

   Documents (--json, --telemetry) and -o directories are written by
   [write_output], where "-" as a document path is stdout; every write,
   stores and bundles included, fails through [writing]. Exit 1 is a
   runtime failure ([failed]), exit 124 a command line the CLI rejects. *)

module S = Tiersim.Scenario
module Workload = Tiersim.Workload
module Faults = Tiersim.Faults
module Metrics = Tiersim.Metrics
module ST = Simnet.Sim_time
open Cmdliner

(* ---- shared options ---- *)

let clients =
  Arg.(value & opt int 300 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent emulated clients.")

let mix =
  let parse s =
    match Workload.mix_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "expected Browse_only or Default")
  in
  let print ppf m = Format.pp_print_string ppf (Workload.mix_to_string m) in
  Arg.(
    value
    & opt (conv (parse, print)) Workload.Browse_only
    & info [ "mix" ] ~docv:"MIX" ~doc:"Workload mix: Browse_only or Default.")

let max_threads =
  Arg.(
    value & opt int 40
    & info [ "max-threads" ] ~docv:"N" ~doc:"App-server thread pool size (JBoss MaxThreads).")

let time_scale =
  Arg.(
    value & opt float 0.1
    & info [ "scale" ] ~docv:"F"
        ~doc:"Stage-duration scale; 1.0 reproduces the paper's 10.5-minute runs.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let skew_ms =
  Arg.(
    value & opt int 0
    & info [ "skew-ms" ] ~docv:"MS" ~doc:"Cross-node clock skew magnitude, milliseconds.")

let noise =
  Arg.(
    value & flag
    & info [ "noise" ]
        ~doc:
          "Add the paper's noise environment: rlogin/ssh chatter plus mysql clients on the \
           service database.")

let faults =
  let fault =
    Arg.enum
      [
        ("ejb-delay", Faults.ejb_delay);
        ("db-lock", Faults.database_lock);
        ("ejb-network", Faults.ejb_network);
        ("host-silence", Faults.host_silence ~host:"app1" ~after:(ST.sec 15));
        ( "agent-crash",
          Faults.agent_crash ~host:"app1" ~after:(ST.sec 15)
            ~restart_after:(Some (ST.sec 5)) );
      ]
  in
  Arg.(
    value & opt_all fault []
    & info [ "fault" ] ~docv:"FAULT"
        ~doc:
          "Inject a performance problem: $(b,ejb-delay), $(b,db-lock), $(b,ejb-network), \
           $(b,host-silence) (app1's probe goes dark 15 virtual seconds in), or \
           $(b,agent-crash) (app1's collection agent dies 15 virtual seconds in and \
           restarts 5 seconds later; only meaningful with $(b,--collect)). Repeatable.")

let window_ms =
  Arg.(
    value & opt float 10.0
    & info [ "window-ms" ] ~docv:"MS" ~doc:"Correlator sliding-window size, milliseconds.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for sharded correlation and store segment scans. Defaults to the \
           $(b,PT_JOBS) environment variable, else 1 (one domain, the serial correlator). \
           Output is identical at any value.")

let jobs_of = function Some j -> max 1 j | None -> Parallel.Pool.default_jobs ()

let fault_onset_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "fault-onset" ] ~docv:"MS"
        ~doc:
          "Hold the injected faults back until $(docv) virtual milliseconds into the run \
           (default: active from the start). $(b,diagnose --live) defaults this to the \
           middle of the runtime session.")

let spec_of clients mix max_threads time_scale seed skew_ms noise faults fault_onset_ms =
  {
    S.default with
    S.clients;
    mix;
    max_threads;
    time_scale;
    seed;
    skew = ST.ms skew_ms;
    noise = (if noise then S.Paper_noise { db_connections = 4 } else S.No_noise);
    faults;
    fault_onset = Option.map (fun ms -> ST.span_of_float_s (ms /. 1e3)) fault_onset_ms;
  }

let spec_term =
  Term.(
    const spec_of $ clients $ mix $ max_threads $ time_scale $ seed $ skew_ms $ noise $ faults
    $ fault_onset_ms)

let window_of ms = ST.span_of_float_s (ms /. 1e3)

let policy_conv =
  let parse s =
    match Store.Policy.of_string s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Cmdliner.Arg.conv (parse, Store.Policy.pp)

(* --agent-policy: the policy syntax, restricted to what one host's agent
   can decide alone. A request is recognised at the entry tier and spans
   every tier, so request-level terms belong to --store-policy. *)
let agent_policy_conv =
  let parse s =
    match Store.Policy.of_string s with
    | Error e -> Error (`Msg e)
    | Ok Store.Policy.{ drop_programs; drop_non_causal = false; sampling = Keep_all } ->
        Ok drop_programs
    | Ok _ ->
        Error
          (`Msg
             (Printf.sprintf
                "%S: an agent sees one host's rows and can only drop programs (none or \
                 drop=P+Q); reduce whole requests with --store-policy, over the merged stream"
                s))
  in
  let pp ppf drop_programs = Store.Policy.pp ppf (Store.Policy.make ~drop_programs ()) in
  Cmdliner.Arg.conv (parse, pp)

(* A mesh preset among [names], matched exactly: Cmdliner's [enum] also
   takes a prefix, and "random" would then run "random_mesh". *)
let preset_conv names =
  let parse s =
    if List.mem s names then Ok s
    else Error (Printf.sprintf "unknown preset %s (try: %s)" s (String.concat ", " names))
  in
  Arg.conv' (parse, Format.pp_print_string)

(* ---- failures and outputs ---- *)

(* A failure that comes from the run's data (an input that cannot be read
   or decoded, an output that cannot be written, runs with nothing to
   compare) exits 1. A command line the CLI rejects exits 124, Cmdliner's
   own code for a bad command line. *)
let failed msg =
  Format.eprintf "precisetracer: %s@." msg;
  exit 1

let usage_error msg =
  Format.eprintf "precisetracer: %s@." msg;
  exit Cmd.Exit.cli_error

let or_fail = function Ok x -> x | Error e -> failed e

(* Run [f], which writes [path]; a write that fails is a runtime failure
   that names [path]. *)
let writing path f =
  try f ()
  with Sys_error msg | Fun.Finally_raised (Sys_error msg) ->
    let prefix = path ^ ": " in
    let msg =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    failed (Printf.sprintf "cannot write %s: %s" path msg)

(* The channel of the documents sent to "-": the process's stdout. The
   first such document moves file descriptor 1 to stderr, so that all else
   printed (the human report, from any module or domain) goes to stderr
   and stdout holds the documents alone. *)
let stdout_documents =
  lazy
    (flush stdout;
     let oc = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
     Unix.dup2 Unix.stderr Unix.stdout;
     oc)

(* Every document and directory the CLI writes. A document is a string,
   and "-" as its path is stdout; a directory is made if missing and
   filled by [save]. *)
let write_output ~what path output =
  match output with
  | `Document body when String.equal path "-" ->
      let oc = Lazy.force stdout_documents in
      output_string oc body;
      flush oc
  | _ ->
      writing path (fun () ->
          match output with
          | `Document body ->
              (* close explicitly: a failed flush must surface *)
              Out_channel.with_open_bin path (fun oc ->
                  output_string oc body;
                  close_out oc)
          | `Dir save ->
              if not (Sys.file_exists path) then Sys.mkdir path 0o755;
              save path);
      Format.printf "%s written to %s@." what path

let write_json ?(what = "json") path json =
  write_output ~what path (`Document (Core.Json.to_string ~indent:true json ^ "\n"))

(* A document flag takes a FILE, "-" for stdout. Given "-", it moves the
   human report to stderr before the command prints anything. Only one
   document of a run may take stdout: two would run together. *)
let document_arg long ~doc =
  let to_stdout = function
    | Some "-" as path ->
        if Lazy.is_val stdout_documents then
          usage_error (Printf.sprintf "--%s -: another document already writes to stdout" long);
        ignore (Lazy.force stdout_documents);
        path
    | path -> path
  in
  let doc = doc ^ "; \"-\" writes to stdout." in
  Term.(const to_stdout $ Arg.(value & opt (some string) None & info [ long ] ~docv:"FILE" ~doc))

(* Load traces from DIR as one arena per host, whatever their format: a
   segmented store (has a MANIFEST.json), binary PTB1 files (recognised
   by magic, any filename) and/or per-node *.trace text files — mixed
   contents are merged in the store's canonical row order, which leaves
   out hosts with no rows; files without a row are no traces. *)
let load_traces ?jobs dir =
  if Store.Manifest.exists ~dir then
    Result.map fst (Store.Query.run_native ?jobs ~dir Store.Query.all)
  else
    match Sys.readdir dir with
    | exception Sys_error e -> Error e
    | entries -> (
        Array.sort String.compare entries;
        let binaries =
          Array.to_list entries
          |> List.filter (fun f ->
                 Trace.Binary_format.is_binary_file ~path:(Filename.concat dir f))
        in
        let rec load_bins acc = function
          | [] -> Ok (List.rev acc)
          | f :: rest -> (
              match Trace.Binary_format.load ~path:(Filename.concat dir f) with
              | Ok c -> load_bins (c :: acc) rest
              | Error e -> Error (Printf.sprintf "%s: %s" f e))
        in
        match load_bins [] binaries with
        | Error e -> Error e
        | Ok bins -> (
            let has_text =
              Array.exists (fun f -> Filename.check_suffix f ".trace") entries
            in
            let texts =
              if has_text then
                match Trace.Log.load ~dir with
                | Ok c -> Ok [ Trace.Arena.of_collection c ]
                | Error e -> Error e
              else Ok []
            in
            match texts with
            | Error e -> Error e
            | Ok texts -> (
                match Store.Query.merge_native (bins @ texts) with
                | [] ->
                    Error
                      (Printf.sprintf
                         "no traces in %s (expected a store MANIFEST.json, PTB1 files or \
                          *.trace files)"
                         dir)
                | arenas -> Ok arenas)))

(* The oracle saved next to a run's traces, if there is one. An unreadable
   one is reported and skipped: the traces are still worth correlating. *)
let read_ground_truth dir =
  let path = Filename.concat dir "ground_truth.txt" in
  if not (Sys.file_exists path) then None
  else
    match Trace.Ground_truth.load ~path with
    | Ok gt -> Some gt
    | Error e ->
        Format.printf "could not read %s: %s@." path e;
        None

(* ---- telemetry self-profile ---- *)

let telemetry =
  let file =
    document_arg "telemetry"
      ~doc:
        "Write the pipeline's own metrics (correlator, simnet, probe; see docs/TELEMETRY.md) \
         to $(docv) after the run"
  in
  let format =
    Arg.(
      value
      & opt (enum Core.Telemetry_report.formats) `Prom
      & info [ "telemetry-format" ] ~docv:"FORMAT"
          ~doc:
            "Self-profile format: $(b,prom) (Prometheus text exposition), $(b,json), or \
             $(b,report) (human-readable tables).")
  in
  Term.(const (fun file format -> (file, format)) $ file $ format)

let write_telemetry (file, format) =
  Option.iter
    (fun path ->
      write_output ~what:"telemetry" path
        (`Document (Core.Telemetry_report.export format Telemetry.Registry.(snapshot default))))
    file

(* ---- bundle packing shared by simulate/correlate/bundle pack ---- *)

let bundle_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle" ] ~docv:"FILE"
        ~doc:
          "Also pack the run into a single-file PTZ1 bundle at $(docv): the raw store, the \
           correlated causal paths with back-links to their records, and the pattern \
           profiles (see docs/BUNDLE.md).")

let scenario_json (spec : S.spec) =
  let open Core.Json in
  Obj
    [
      ("clients", Int spec.S.clients);
      ("mix", String (Workload.mix_to_string spec.S.mix));
      ("max_threads", Int spec.S.max_threads);
      ("time_scale", Float spec.S.time_scale);
      ("seed", Int spec.S.seed);
      ("skew_ns", Int (ST.span_ns spec.S.skew));
      ( "noise",
        match spec.S.noise with
        | S.No_noise -> Null
        | S.Paper_noise { db_connections } -> Obj [ ("db_connections", Int db_connections) ] );
      ("faults", Int (List.length spec.S.faults));
      ( "fault_onset_ns",
        match spec.S.fault_onset with None -> Null | Some s -> Int (ST.span_ns s) );
    ]

(* A run with no path at all had no BEGIN row: the entry endpoint matches
   no flow. Such an error says which option sets it. *)
let with_entry_hint config msg =
  if String.ends_with ~suffix:(Core.Transform.entry_unreached config.Core.Correlator.transform) msg
  then msg ^ "; pass the service's entry endpoint with --entry IP:PORT"
  else msg

let pack_bundle ?embed_telemetry ?scenario ?jobs ~config ~source path =
  match
    writing path (fun () ->
        Bundle.Pack.pack ?embed_telemetry ?scenario ?jobs ~config ~source ~path ())
  with
  | Ok summary -> Format.printf "%a@." Bundle.Pack.pp_summary summary
  | Error e -> failed ("cannot pack bundle: " ^ with_entry_hint config e)

(* A pack source for canonical arenas that no run has correlated yet. *)
let correlated_run ?jobs config arenas =
  let r = Core.Shard.correlate_arena ?jobs config arenas in
  `Run (arenas, r.Core.Correlator.cags, r.Core.Correlator.deformed)

(* ---- stores shared by simulate and store ingest ---- *)

(* Close a store, put the run's oracle next to its segments (so that
   [correlate] scores it) and print its stats. *)
let close_store ?ground_truth dir writer =
  let stats =
    writing dir (fun () ->
        let stats = Store.Writer.close writer in
        Option.iter
          (fun gt -> Trace.Ground_truth.save gt ~path:(Filename.concat dir "ground_truth.txt"))
          ground_truth;
        stats)
  in
  Format.printf "store %s: %a@." dir Store.Writer.pp_stats stats

let open_store ~policy ~correlate ~segment_records dir =
  writing dir (fun () ->
      Store.Writer.create ~policy ~correlate ~roll_records:segment_records ~dir ())

let write_store ~policy ~correlate ~segment_records ?ground_truth dir arenas =
  let writer = open_store ~policy ~correlate ~segment_records dir in
  writing dir (fun () -> Store.Writer.ingest_native writer arenas);
  close_store ?ground_truth dir writer

(* ---- simulate ---- *)

let print_summary outcome =
  let s = outcome.S.summary in
  Format.printf "completed %d requests over the whole run; runtime session: %a@."
    (Metrics.total_recorded outcome.S.metrics)
    Metrics.pp_summary s;
  Format.printf "captured %d activities on %d nodes@." outcome.S.activity_count
    (List.length outcome.S.logs)

let print_collect d =
  let online = Collect.Deploy.online d in
  let paths = Core.Online.paths online in
  let flagged = List.length (List.filter Core.Cag.is_deformed paths) in
  Format.printf "collect: %d causal paths online (%d flagged deformed, %d unfinished)@."
    (List.length paths) flagged
    (List.length (Core.Online.deformed online));
  List.iter
    (fun agent ->
      let s = Collect.Agent.stats agent in
      Format.printf
        "  agent %s: observed %d, reduced %d, dropped %d, shipped %d frames (%d \
         retransmits, %d bytes), acked %d records over %d connection%s@."
        (Collect.Agent.host agent) s.Collect.Agent.observed s.Collect.Agent.reduced
        (Collect.Agent.dropped_total s) s.Collect.Agent.frames_shipped
        s.Collect.Agent.retransmits s.Collect.Agent.bytes_shipped
        s.Collect.Agent.acked_records s.Collect.Agent.connections
        (if s.Collect.Agent.connections = 1 then "" else "s"))
    (Collect.Deploy.agents d);
  let collector = Collect.Deploy.collector d in
  List.iter
    (fun (host, (hs : Collect.Collector.host_stats)) ->
      Format.printf
        "  collector<-%s: %d frames / %d records delivered, %d duplicates, %d skipped@."
        host hs.Collect.Collector.delivered_frames hs.Collect.Collector.delivered_records
        hs.Collect.Collector.duplicate_frames hs.Collect.Collector.skipped_frames)
    (Collect.Collector.stats collector);
  match
    Telemetry.Registry.(find_sample (snapshot default)) "pt_collect_delivery_lag_seconds"
  with
  | Some (Telemetry.Registry.Hist h) when h.count > 0 ->
      Format.printf "  delivery lag: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms@."
        (h.p50 *. 1e3) (h.p90 *. 1e3) (h.p99 *. 1e3)
  | _ -> ()

let print_cluster_summary (co : S.cluster_outcome) =
  let requests =
    List.fold_left (fun acc o -> acc + Metrics.total_recorded o.S.metrics) 0 co.S.outcomes
  in
  let activities = List.fold_left (fun acc o -> acc + o.S.activity_count) 0 co.S.outcomes in
  Format.printf "cluster: %d replicas / %d traced hosts, %d requests completed, %d \
                 activities captured@."
    co.S.cluster.S.replicas (List.length co.S.hosts) requests activities

let print_hierarchy (report : Collect.Hierarchy.report) =
  let module P = Collect.Hierarchy in
  let flagged = List.length (List.filter Core.Cag.is_deformed report.P.finished) in
  Format.printf "hierarchy: %d causal paths at the root (%d flagged deformed, %d unfinished)@."
    (List.length report.P.finished) flagged
    (List.length report.P.deformed);
  Format.printf "  root digest %s@." report.P.digest;
  Format.printf
    "  level 0: %d records observed, %d removed before framing (%d coalesced), %d bytes \
     shipped@."
    report.P.agent_observed report.P.agent_reduced report.P.partial_coalesced
    report.P.agent_bytes_shipped;
  List.iter
    (fun (sh : P.shard_report) ->
      Format.printf
        "  shard %d <- replicas [%s]: %d paths (%d unfinished) from %d reduced records, %d \
         PTP1 bytes to root@."
        sh.P.shard_id
        (String.concat "," (List.map string_of_int sh.P.shard_replicas))
        sh.P.paths_finished sh.P.paths_deformed sh.P.ingest_records sh.P.output_bytes)
    report.P.shard_reports;
  Format.printf "  root ingest: %d PTP1 bytes" report.P.root_ingest_bytes;
  if report.P.root_ingest_bytes > 0 then
    Format.printf " (%.1fx below the %d wire bytes level 1 ingested)"
      (float_of_int report.P.agent_bytes_shipped /. float_of_int report.P.root_ingest_bytes)
      report.P.agent_bytes_shipped;
  Format.printf "@."

(* Save a run's traces to [dir] as text logs or one PTB1 file, plus its
   ground truth when it has one. [arenas] spares a second conversion. *)
let save_run ~binary ~dir ?gt ?arenas logs =
  let what =
    (if binary then "traces.ptb" else "trace files")
    ^ if Option.is_some gt then " and ground_truth.txt" else ""
  in
  write_output ~what dir
    (`Dir
      (fun dir ->
        (if binary then
           let arenas =
             match arenas with Some a -> Lazy.force a | None -> Trace.Arena.of_collection logs
           in
           Trace.Binary_format.save arenas ~path:(Filename.concat dir "traces.ptb")
         else Trace.Log.save logs ~dir);
        Option.iter
          (fun gt -> Trace.Ground_truth.save gt ~path:(Filename.concat dir "ground_truth.txt"))
          gt))

let simulate_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Save per-node TCP_TRACE files into $(docv).")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:
            "With $(b,-o), save one compact binary file (traces.ptb) instead of per-node text \
             files.")
  in
  let store_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Stream the captured activities into a segmented trace store at $(docv) \
             (segments + MANIFEST.json; see docs/STORE.md).")
  in
  let store_policy =
    Arg.(
      value
      & opt (some' ~none:Store.Policy.none policy_conv) None
      & info [ "store-policy" ] ~docv:"POLICY"
          ~doc:
            "Online reduction policy for --store, e.g. $(b,causal,sample=0.25@7). \
             Default $(b,none) (keep everything).")
  in
  let segment_records =
    Arg.(
      value
      & opt (some' ~none:Store.Writer.default_roll_records int) None
      & info [ "segment-records" ] ~docv:"N"
          ~doc:"Roll a new $(b,--store) segment every $(docv) buffered activities.")
  in
  let collect =
    Arg.(
      value & flag
      & info [ "collect" ]
          ~doc:
            "Run the in-band collection plane: one agent per traced host ships the probe's \
             records over the simulated network to a central collector feeding an online \
             correlation (see docs/COLLECT.md). Shipping consumes the same NICs and CPUs \
             as the service.")
  in
  let collect_batch =
    Arg.(
      value
      & opt (some' ~none:Collect.Agent.default_config.Collect.Agent.batch_records int) None
      & info [ "collect-batch" ] ~docv:"N"
          ~doc:
            "Agent frame size: records per PTC1 frame. This and the other agent options \
             need $(b,--collect) or $(b,--collect-shards).")
  in
  let collect_buffer =
    Arg.(
      value
      & opt (some' ~none:Collect.Agent.default_config.Collect.Agent.max_spool_records int) None
      & info [ "collect-buffer" ] ~docv:"N"
          ~doc:"Agent buffer bound: records held (batch + encode queue + spool) before \
                the overflow policy engages.")
  in
  let collect_overflow =
    Arg.(
      value
      & opt
          (some'
             ~none:Collect.Agent.default_config.Collect.Agent.overflow
             (enum [ ("drop-oldest", Collect.Agent.Drop_oldest); ("block", Collect.Agent.Block) ]))
          None
      & info [ "collect-overflow" ] ~docv:"POLICY"
          ~doc:
            "Agent overflow policy: $(b,drop-oldest) evicts the oldest unshipped frames, \
             $(b,block) drops incoming records.")
  in
  let agent_policy =
    Arg.(
      value
      & opt (some' ~none:[] agent_policy_conv) None
      & info [ "agent-policy" ] ~docv:"POLICY"
          ~doc:
            "Programs each agent drops before shipping, e.g. $(b,drop=sshd+mysql). Default \
             $(b,none) (ship everything). Request-level terms ($(b,causal), $(b,sample=), \
             $(b,head=), $(b,budget=)) need the merged stream: use $(b,--store-policy).")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Scale the testbed out to $(docv) independent service replicas ($(docv) x 3 \
             traced hosts, the cluster preset). Above 1 this requires the hierarchical \
             plane, $(b,--collect-shards).")
  in
  let collect_shards =
    Arg.(
      value & opt int 0
      & info [ "collect-shards" ] ~docv:"N"
          ~doc:
            "Run the hierarchical collection plane with $(docv) level-1 collector shards: \
             per-host agents partial-correlate before shipping (hierarchy level 0), each \
             shard correlates a partition of the entry connections, and the root splices \
             the shards' PTP1 path tables (see docs/COLLECT.md). $(b,1) runs level 0 \
             behind a single shard.")
  in
  let topology =
    let declarative =
      List.filter (fun n -> Mesh.Presets.spec_of ~seed:0 n <> None) Mesh.Presets.names
    in
    Arg.(
      value
      & opt (some (preset_conv declarative)) None
      & info [ "topology" ] ~docv:"PRESET"
          ~doc:
            "Simulate a declarative microservice-mesh preset (see $(b,precisetracer mesh \
             --list)) instead of the three-tier testbed. Only $(b,--seed), $(b,-o) and \
             $(b,--binary) apply; use the $(b,mesh) subcommand to also correlate and \
             score.")
  in
  let run_mesh ~seed ~out ~binary preset =
    (* --topology takes only presets with a declarative spec *)
    let b = Mesh.Runtime.build (Option.get (Mesh.Presets.spec_of ~seed preset)) in
    Simnet.Engine.run b.Mesh.Runtime.engine;
    Format.printf "mesh %s: %d requests completed, %d activities captured on %d hosts@." preset
      (Trace.Ground_truth.count b.Mesh.Runtime.gt)
      (Trace.Probe.activity_count b.Mesh.Runtime.probe)
      (List.length b.Mesh.Runtime.hostnames);
    Format.printf "served:";
    List.iter (fun (h, n) -> Format.printf " %s=%d" h n) (Mesh.Runtime.served b);
    Format.printf "@.";
    Option.iter
      (fun dir ->
        save_run ~binary ~dir ~gt:b.Mesh.Runtime.gt (Trace.Probe.logs b.Mesh.Runtime.probe);
        (* The generic correlate command defaults its entry endpoint to
           the RUBiS web tier; mesh topologies listen elsewhere, so tell
           the user what to pass. *)
        match b.Mesh.Runtime.entries with
        | e :: _ ->
            Format.printf "correlate with: precisetracer correlate %s --entry %a@." dir
              Simnet.Address.pp_endpoint e
        | [] -> ())
      out
  in
  let run_hierarchy ~agent ~shards ~replicas ~out ~binary spec =
    let cluster = { S.base = spec; S.replicas } in
    let config = { Collect.Hierarchy.default_config with Collect.Hierarchy.shards; agent } in
    let plane = Collect.Hierarchy.create ~config cluster in
    let co = S.run_cluster ~before_replica:(Collect.Hierarchy.install plane) cluster in
    let report = Collect.Hierarchy.finish plane in
    print_cluster_summary co;
    print_hierarchy report;
    Option.iter (fun dir -> save_run ~binary ~dir co.S.all_logs) out
  in
  let run_flat ~agent ~collect ~out ~binary ~store_dir ~store_policy ~segment_records
      ~bundle_out spec =
    let deploy = ref None in
    let writer = ref None in
    let before_run svc =
      if collect then begin
        Option.iter
          (fun dir ->
            let correlate =
              Core.Correlator.config ~transform:(Tiersim.Service.transform_config svc) ()
            in
            writer := Some (open_store ~policy:store_policy ~correlate ~segment_records dir))
          store_dir;
        let config = { Collect.Deploy.default_config with Collect.Deploy.agent } in
        deploy := Some (Collect.Deploy.install ~config ?writer:!writer svc)
      end
    in
    let after_run _ = Option.iter Collect.Deploy.finish !deploy in
    let outcome = S.run ~before_run ~after_run spec in
    print_summary outcome;
    let arenas = lazy (Trace.Arena.of_collection outcome.S.logs) in
    Option.iter
      (fun dir -> save_run ~binary ~dir ~gt:outcome.S.ground_truth ~arenas outcome.S.logs)
      out;
    Option.iter print_collect !deploy;
    let ground_truth = outcome.S.ground_truth in
    (match (store_dir, !writer) with
    | Some dir, Some w ->
        (* --collect --store: the writer was fed in-band by the collector *)
        close_store ~ground_truth dir w
    | Some dir, None ->
        let correlate = Core.Correlator.config ~transform:outcome.S.transform () in
        write_store ~policy:store_policy ~correlate ~segment_records ~ground_truth dir
          (Lazy.force arenas)
    | None, _ -> ());
    Option.iter
      (fun path ->
        let config = Core.Correlator.config ~transform:outcome.S.transform () in
        pack_bundle ~scenario:(scenario_json spec) ~config
          ~source:(correlated_run config (Store.Query.merge_native [ Lazy.force arenas ]))
          path)
      bundle_out
  in
  let run spec out binary store_dir store_policy segment_records collect collect_batch
      collect_buffer collect_overflow agent_policy replicas collect_shards bundle_out topology
      telemetry =
    if replicas < 1 then usage_error "--replicas must be at least 1";
    if collect_shards < 0 then usage_error "--collect-shards must be 0 (off) or more";
    (* An option that would do nothing is refused, naming what it needs. *)
    let needs flag given what =
      if given then usage_error (Printf.sprintf "%s applies only with %s" flag what)
    in
    let no_agents = (not collect) && collect_shards = 0 in
    List.iter
      (fun (flag, given) -> needs flag (no_agents && given) "--collect or --collect-shards")
      [
        ("--agent-policy", Option.is_some agent_policy);
        ("--collect-batch", Option.is_some collect_batch);
        ("--collect-buffer", Option.is_some collect_buffer);
        ("--collect-overflow", Option.is_some collect_overflow);
      ];
    let no_store = Option.is_none store_dir in
    needs "--store-policy" (no_store && Option.is_some store_policy) "--store DIR";
    needs "--segment-records" (no_store && Option.is_some segment_records) "--store DIR";
    needs "--binary" (binary && Option.is_none out) "-o DIR";
    let agent_policy = Option.value agent_policy ~default:[] in
    let store_policy = Option.value store_policy ~default:Store.Policy.none in
    let segment_records = Option.value segment_records ~default:Store.Writer.default_roll_records in
    let d = Collect.Agent.default_config in
    let agent =
      {
        d with
        Collect.Agent.batch_records = Option.value collect_batch ~default:d.batch_records;
        max_spool_records = Option.value collect_buffer ~default:d.max_spool_records;
        overflow = Option.value collect_overflow ~default:d.overflow;
        drop_programs = agent_policy;
      }
    in
    let flat_only = collect || Option.is_some store_dir || Option.is_some bundle_out in
    (match topology with
    | Some preset ->
        if flat_only || collect_shards > 0 || replicas > 1 then
          usage_error
            "--topology runs the mesh simulator and supports only --seed, -o and --binary; \
             use the mesh subcommand to correlate and score";
        run_mesh ~seed:spec.S.seed ~out ~binary preset
    | None when collect_shards > 0 ->
        if flat_only then
          usage_error
            "--collect-shards runs its own collection plane and cannot be combined with \
             --collect, --store or --bundle";
        if agent_policy <> [] then
          usage_error
            "--agent-policy does not apply under --collect-shards: the partial-correlation \
             pass is the agent-local reduction";
        run_hierarchy ~agent ~shards:collect_shards ~replicas ~out ~binary spec
    | None ->
        if replicas > 1 then
          usage_error "--replicas above 1 needs the hierarchical plane: add --collect-shards N";
        run_flat ~agent ~collect ~out ~binary ~store_dir ~store_policy ~segment_records
          ~bundle_out spec);
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the simulated three-tier testbed.")
    Term.(
      const run $ spec_term $ out $ binary $ store_out $ store_policy $ segment_records
      $ collect $ collect_batch $ collect_buffer $ collect_overflow $ agent_policy
      $ replicas $ collect_shards $ bundle_out_arg $ topology $ telemetry)

(* ---- correlate ---- *)

let transform_of_entry entry =
  Core.Transform.config ~entry_points:[ entry ]
    ~drop_programs:Tiersim.Service.standard_drop_programs ()

let require_paths config cags unfinished =
  if cags = [] && unfinished = [] then
    failed
      (with_entry_hint config (Core.Transform.entry_unreached config.Core.Correlator.transform))

(* Replay saved host arenas through the online pipeline in arrival order,
   as a live collector would deliver them. *)
let correlate_online ~config ?straggler_timeout ?max_buffered arenas =
  let hosts = List.map Trace.Arena.hostname arenas in
  let live = ref 0 in
  let online =
    Core.Online.create ~config ~hosts ?straggler_timeout ?max_buffered
      ~on_path:(fun _ -> incr live)
      ()
  in
  Core.Online.replay online arenas;
  let live_before_close = !live in
  Core.Online.finish online;
  (online, live_before_close)

let print_online (online, live) =
  let open Core in
  let paths = Online.paths online in
  let flagged = List.length (List.filter Cag.is_deformed paths) in
  Format.printf
    "%d causal paths online, %d emitted live before close (%d flagged deformed, %d \
     unfinished); peak pending %d@."
    (List.length paths) live flagged
    (List.length (Online.deformed online))
    (Online.peak_pending online);
  let rs = Online.ranker_stats online in
  Format.printf
    "ranker: %d candidates, %d noise discarded, %d resorted; stragglers %d evicted / %d \
     resynced; %d backpressure pops@."
    rs.Ranker.candidates rs.noise_discarded rs.resorted rs.stragglers_evicted
    rs.straggler_resyncs rs.backpressure_pops;
  (match List.filter (fun (_, n) -> n > 0) rs.Ranker.quarantined with
  | [] -> ()
  | q ->
      Format.printf "quarantined:%s@."
        (String.concat ""
           (List.map
              (fun (r, n) -> Printf.sprintf " %s=%d" (Ranker.reject_reason_to_string r) n)
              q)));
  let patterns = Pattern.classify paths in
  List.iter (fun p -> Format.printf "  %a@." Pattern.pp p) patterns

let print_correlation result =
  let open Core in
  Format.printf "%d causal paths (%d deformed) in %.3f s; peak %d records held@."
    (List.length result.Correlator.cags)
    (List.length result.Correlator.deformed)
    result.Correlator.correlation_time result.Correlator.peak_memory_proxy;
  let rs = result.Correlator.ranker_stats in
  Format.printf "ranker: %d candidates, %d noise discarded, %d promotions@." rs.Ranker.candidates
    rs.noise_discarded rs.promotions;
  let patterns = Pattern.classify result.Correlator.cags in
  List.iter (fun p -> Format.printf "  %a@." Pattern.pp p) patterns;
  match patterns with
  | p :: _ ->
      Format.printf "@.%a@." Aggregate.pp (Aggregate.of_pattern p);
      Format.printf "@.%a@." Aggregate.pp_tails p
  | [] -> ()

let entry_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ ip; port ] -> (
        match (Simnet.Address.ip_of_string ip, int_of_string_opt port) with
        | ip, Some port -> Ok (Simnet.Address.endpoint ip port)
        | exception Invalid_argument m -> Error (`Msg m)
        | _, None -> Error (`Msg "bad port"))
    | _ -> Error (`Msg "expected IP:PORT")
  in
  let print ppf e = Simnet.Address.pp_endpoint ppf e in
  Arg.(
    value
    & opt (conv (parse, print))
        (Simnet.Address.endpoint (Simnet.Address.ip_of_string "10.0.1.1") 80)
    & info [ "entry" ] ~docv:"IP:PORT" ~doc:"The service's entry endpoint (the web tier).")

let correlate_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:
            "Directory of traces: a segmented store, binary PTB1 files (auto-detected by \
             magic) and/or *.trace text files. A $(docv)/ground_truth.txt scores the \
             paths.")
  in
  let json = document_arg "json" ~doc:"Export all causal paths as JSON to $(docv)" in
  let show =
    Arg.(
      value & opt int 0
      & info [ "show" ] ~docv:"N" ~doc:"Render the first $(docv) causal paths as swimlanes.")
  in
  let online =
    Arg.(
      value & flag
      & info [ "online" ]
          ~doc:
            "Replay the traces through the online correlator (one merged arrival-ordered \
             feed) instead of the offline batch pipeline.")
  in
  let straggler_timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "straggler-timeout" ] ~docv:"MS"
          ~doc:
            "Online: evict a stream from the commit wait set once it falls more than $(docv) \
             virtual milliseconds behind the feed watermark, so a silent host cannot stall \
             the pipeline.")
  in
  let max_buffered =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-buffered" ] ~docv:"N"
          ~doc:
            "Online: bound held records at $(docv); past it the oldest window is \
             force-resolved instead of waiting for input.")
  in
  let run dir window_ms entry jobs json show online straggler_timeout_ms max_buffered
      bundle_out telemetry =
    let jobs = jobs_of jobs in
    let arenas = or_fail (load_traces ~jobs dir) in
    Format.printf "loaded %d activities from %d nodes@." (Trace.Arena.total arenas)
      (List.length arenas);
    let config =
      Core.Correlator.config ~transform:(transform_of_entry entry) ~window:(window_of window_ms)
        ()
    in
    let cags, unfinished =
      if online then begin
        let ((t, _) as run) =
          correlate_online ~config
            ?straggler_timeout:(Option.map window_of straggler_timeout_ms)
            ?max_buffered arenas
        in
        print_online run;
        (Core.Online.paths t, Core.Online.deformed t)
      end
      else begin
        let result = Core.Shard.correlate_arena ~jobs config arenas in
        print_correlation result;
        (result.Core.Correlator.cags, result.Core.Correlator.deformed)
      end
    in
    require_paths config cags unfinished;
    List.iteri
      (fun i cag -> if i < show then Format.printf "@.%s" (Core.Cag_render.render cag))
      cags;
    Option.iter (fun path -> write_json ~what:"paths" path (Core.Cag_export.paths_to_json cags)) json;
    Option.iter
      (fun gt ->
        Format.printf "@.%a@." Core.Accuracy.pp_verdict (Core.Accuracy.check ~ground_truth:gt cags))
      (read_ground_truth dir);
    Option.iter (pack_bundle ~config ~source:(`Run (arenas, cags, unfinished))) bundle_out;
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "correlate" ~doc:"Correlate saved trace files into causal paths.")
    Term.(
      const run $ dir $ window_ms $ entry_arg $ jobs_arg $ json $ show $ online
      $ straggler_timeout_ms $ max_buffered $ bundle_out_arg $ telemetry)

(* ---- evaluate ---- *)

let evaluate_cmd =
  let run spec window_ms jobs telemetry =
    let outcome = S.run spec in
    print_summary outcome;
    let cfg =
      Core.Correlator.config ~transform:outcome.S.transform ~window:(window_of window_ms) ()
    in
    let result =
      Core.Shard.correlate_arena ~jobs:(jobs_of jobs) cfg
        (Trace.Arena.of_collection outcome.S.logs)
    in
    print_correlation result;
    let verdict =
      Core.Accuracy.check ~ground_truth:outcome.S.ground_truth result.Core.Correlator.cags
    in
    Format.printf "@.%a@." Core.Accuracy.pp_verdict verdict;
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:
         "Simulate, correlate, and score accuracy against the oracle. To score saved \
          traces, $(b,correlate) their directory.")
    Term.(const run $ spec_term $ window_ms $ jobs_arg $ telemetry)

(* ---- diagnose ---- *)

let diagnose_cmd =
  let baseline_clients =
    Arg.(
      value & opt int 300
      & info [ "baseline-clients" ] ~docv:"N"
          ~doc:"Client count of the healthy baseline run (offline mode).")
  in
  let pattern_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pattern" ] ~docv:"NAME"
          ~doc:
            "Pattern to diagnose, by tier-route name (e.g. \
             $(b,httpd>java>mysqld>java>httpd)). Default: the most frequent pattern \
             present in both runs.")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Streaming mode: run one scenario with the in-band collection plane, inject \
             the faults mid-run, and watch the online path feed with the streaming \
             detector — verdicts print as they fire, then the run is scored against the \
             injected ground truth (see docs/DIAGNOSE.md).")
  in
  let json =
    document_arg "json" ~doc:"Write the structured result (report, or verdicts + score) to $(docv)"
  in
  let baseline_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Live mode: arm the detector with this saved baseline instead of learning one \
             from the run's healthy up-ramp.")
  in
  let save_baseline =
    document_arg "save-baseline"
      ~doc:"Live mode: save the baseline the detector ran with (for later --baseline)"
  in
  let share_threshold =
    Arg.(
      value
      & opt float Diagnose.Detector.default_config.Diagnose.Detector.share_threshold
      & info [ "share-threshold" ] ~docv:"F"
          ~doc:"Live mode: minimum latency-share drift severity that fires a verdict.")
  in
  let run_offline spec baseline_clients pattern json =
    let profile_run spec =
      let outcome = S.run spec in
      let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
      let result = Core.Correlator.correlate cfg outcome.S.logs in
      Core.Aggregate.profiles_of_cags result.Core.Correlator.cags
    in
    let baseline =
      profile_run
        { spec with S.clients = baseline_clients; faults = []; fault_onset = None; max_threads = 250 }
    in
    (* never empty: an empty pairing is an error *)
    let { Core.Analysis.baseline = b; observed = o; report } =
      List.hd (or_fail (Core.Analysis.compare_runs ?pattern ~baseline ~observed:(profile_run spec) ()))
    in
    let name = o.Core.Analysis.name in
    Format.printf "pattern %s: %d baseline paths vs %d observed paths@." name
      b.Core.Analysis.count o.Core.Analysis.count;
    Format.printf "%a@." Core.Analysis.pp_report report;
    Option.iter
      (fun path ->
        write_json path
          (Core.Json.Obj
             ([ ("mode", Core.Json.String "offline"); ("pattern", Core.Json.String name) ]
             @ Core.Analysis.report_fields report)))
      json
  in
  let run_live spec json baseline_file save_baseline share_threshold =
    let baseline = Option.map (fun path -> or_fail (Diagnose.Baseline.load ~path)) baseline_file in
    let config = { Diagnose.Detector.default_config with Diagnose.Detector.share_threshold } in
    let r =
      Diagnose.Live.run ~config ?baseline
        ~on_verdict:(fun v -> Format.printf "%a@." Diagnose.Detector.pp_verdict v)
        spec
    in
    Format.printf "@.%d paths watched in-band, %d verdicts@." r.Diagnose.Live.paths_fed
      (List.length r.Diagnose.Live.verdicts);
    Format.printf "%a@." Diagnose.Verdict.pp_score r.Diagnose.Live.score;
    (match (save_baseline, r.Diagnose.Live.baseline) with
    | Some path, Some bl -> write_json ~what:"baseline" path (Diagnose.Baseline.to_json bl)
    | Some _, None -> Format.eprintf "no baseline learned; nothing saved@."
    | None, _ -> ());
    Option.iter
      (fun path ->
        write_json path
          (Core.Json.Obj
             [
               ("mode", Core.Json.String "live");
               ( "verdicts",
                 Core.Json.List
                   (List.map Diagnose.Detector.verdict_to_json r.Diagnose.Live.verdicts) );
               ("score", Diagnose.Verdict.score_to_json r.Diagnose.Live.score);
               ("paths_fed", Core.Json.Int r.Diagnose.Live.paths_fed);
             ]))
      json
  in
  let run spec live baseline_clients pattern_name json baseline_file save_baseline
      share_threshold telemetry =
    if live then run_live spec json baseline_file save_baseline share_threshold
    else run_offline spec baseline_clients pattern_name json;
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Find the component responsible for a performance problem: compare a suspect run \
          against a healthy baseline (offline), or watch a live run's in-band path feed \
          with the streaming detector (--live).")
    Term.(
      const run $ spec_term $ live $ baseline_clients $ pattern_arg $ json $ baseline_file
      $ save_baseline $ share_threshold $ telemetry)

(* ---- store and bundle queries ---- *)

(* The time-range/host filter and -o DIR that store query and bundle
   query share. *)
let query_term =
  let ms name ~doc = Arg.(value & opt (some float) None & info [ name ] ~docv:"MS" ~doc) in
  let since = ms "since-ms" ~doc:"Keep only activities at or after $(docv) (virtual milliseconds)."
  and until = ms "until-ms" ~doc:"Keep only activities at or before $(docv) (virtual milliseconds)."
  and hosts =
    Arg.(
      value & opt_all string []
      & info [ "host" ] ~docv:"HOST" ~doc:"Keep only this node's log. Repeatable.")
  and out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Write the matching activities to $(docv)/traces.ptb (binary).")
  in
  let query since_ms until_ms hosts out =
    let ns_of ms = int_of_float (ms *. 1e6) in
    ( Store.Query.predicate
        ?since_ns:(Option.map ns_of since_ms)
        ?until_ns:(Option.map ns_of until_ms)
        ?hosts:(match hosts with [] -> None | hs -> Some hs)
        (),
      out )
  in
  Term.(const query $ since $ until $ hosts $ out)

let print_query out (arenas, stats) =
  Format.printf "%a@." Store.Query.pp_stats stats;
  List.iter
    (fun a ->
      Format.printf "  %-10s %d activities@." (Trace.Arena.hostname a) (Trace.Arena.length a))
    arenas;
  Option.iter
    (fun dir ->
      write_output ~what:"traces.ptb" dir
        (`Dir (fun dir -> Trace.Binary_format.save arenas ~path:(Filename.concat dir "traces.ptb"))))
    out

(* ---- store ---- *)

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"STORE" ~doc:"Store directory (holds MANIFEST.json and segments).")

let store_ingest_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"SRC"
          ~doc:"Source trace directory (text, binary or another store; auto-detected).")
  in
  let dest =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "store" ] ~docv:"DIR" ~doc:"Destination store directory.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Store.Policy.none
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Reduction policy: comma-separated terms among $(b,causal), \
             $(b,drop=prog1+prog2), $(b,head=N), $(b,sample=P@SEED), \
             $(b,budget=BYTES_PER_S@SEED). Default $(b,none).")
  in
  let segment_records =
    Arg.(
      value & opt int Store.Writer.default_roll_records
      & info [ "segment-records" ] ~docv:"N"
          ~doc:"Roll a new segment every $(docv) activities.")
  in
  let run src dest policy segment_records window_ms entry telemetry =
    let arenas = or_fail (load_traces src) in
    let correlate =
      Core.Correlator.config ~transform:(transform_of_entry entry) ~window:(window_of window_ms) ()
    in
    let ground_truth = if String.equal src dest then None else read_ground_truth src in
    write_store ~policy ~correlate ~segment_records ?ground_truth dest arenas;
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "ingest" ~doc:"Stream a trace directory into a segmented store, reducing online.")
    Term.(
      const run $ src $ dest $ policy $ segment_records $ window_ms $ entry_arg $ telemetry)

let store_query_cmd =
  let run dir (predicate, out) jobs telemetry =
    print_query out (or_fail (Store.Query.run_native ~jobs:(jobs_of jobs) ~dir predicate));
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Time-range/host query over a store; cold segments are pruned via the manifest.")
    Term.(const run $ store_dir_arg $ query_term $ jobs_arg $ telemetry)

let store_compact_cmd =
  let min_records =
    Arg.(
      value & opt int 8192
      & info [ "min-records" ] ~docv:"N"
          ~doc:"Merge adjacent runs of segments smaller than $(docv) records.")
  in
  let retain =
    Arg.(
      value
      & opt (some float) None
      & info [ "retain-ms" ] ~docv:"MS"
          ~doc:
            "Retention window: delete segments entirely older than $(docv) virtual \
             milliseconds before the store's newest activity.")
  in
  let run dir min_records retain telemetry =
    let retain_ns = Option.map (fun ms -> int_of_float (ms *. 1e6)) retain in
    let stats = or_fail (Store.Compact.run ?retain_ns ~min_records ~dir ()) in
    Format.printf "%a@." Store.Compact.pp_stats stats;
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "compact" ~doc:"Merge small segments and apply retention.")
    Term.(const run $ store_dir_arg $ min_records $ retain $ telemetry)

let store_stat_cmd =
  let run dir =
    let manifest = or_fail (Store.Manifest.load ~dir) in
    let t =
      Core.Report.table ~title:(Printf.sprintf "store %s" dir)
        ~columns:
          [ "id"; "records"; "bytes"; "raw records"; "raw bytes"; "from (s)"; "to (s)";
            "hosts"; "policy" ]
    in
    List.iter
      (fun (m : Store.Segment.meta) ->
        Core.Report.add_row t
          [
            Core.Report.cell_int m.Store.Segment.id;
            Core.Report.cell_int m.records;
            Core.Report.cell_int m.bytes;
            Core.Report.cell_int m.raw_records;
            Core.Report.cell_int m.raw_bytes;
            Printf.sprintf "%.3f" (float_of_int m.min_ts_ns /. 1e9);
            Printf.sprintf "%.3f" (float_of_int m.max_ts_ns /. 1e9);
            String.concat "+" m.hosts;
            m.policy;
          ])
      manifest.Store.Manifest.segments;
    Core.Report.print t;
    let raw_bytes =
      List.fold_left
        (fun acc (m : Store.Segment.meta) -> acc + m.Store.Segment.raw_bytes)
        0 manifest.Store.Manifest.segments
    in
    let bytes = Store.Manifest.total_bytes manifest in
    Format.printf "%d segments, %d records, %d payload bytes (%.1fx reduction)@."
      (List.length manifest.Store.Manifest.segments)
      (Store.Manifest.total_records manifest)
      bytes
      (if bytes = 0 then 1.0 else float_of_int raw_bytes /. float_of_int bytes)
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Describe a store from its manifest alone (no payload decoding).")
    Term.(const run $ store_dir_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Segmented trace store operations (see docs/STORE.md).")
    [ store_ingest_cmd; store_query_cmd; store_compact_cmd; store_stat_cmd ]

(* ---- bundle ---- *)

let bundle_file_arg ~at ~docv =
  Arg.(
    required
    & pos at (some file) None
    & info [] ~docv ~doc:"A PTZ1 bundle file (see docs/BUNDLE.md).")

let open_bundle path = or_fail (Bundle.Reader.open_file path)

let result_json_arg = document_arg "json" ~doc:"Also write the result as JSON to $(docv)"

let bundle_pack_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"SRC"
          ~doc:
            "Source directory: a segmented store (embedded verbatim, keeping its \
             segmentation) or any trace directory (text/binary; cut into synthetic \
             segments).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Bundle file to write.")
  in
  let embed_telemetry =
    Arg.(
      value & flag
      & info [ "embed-telemetry" ]
          ~doc:
            "Embed a snapshot of the packer's own metrics as a $(b,telemetry) section. Off \
             by default so that repacking the same input stays byte-identical.")
  in
  let run src out window_ms entry jobs embed_telemetry telemetry =
    let jobs = jobs_of jobs in
    let config =
      Core.Correlator.config ~transform:(transform_of_entry entry) ~window:(window_of window_ms)
        ()
    in
    let source =
      if Store.Manifest.exists ~dir:src then `Store_dir src
      else begin
        let arenas = or_fail (load_traces ~jobs src) in
        let r = Core.Shard.correlate_arena ~jobs config arenas in
        require_paths config r.Core.Correlator.cags r.Core.Correlator.deformed;
        `Run (arenas, r.Core.Correlator.cags, r.Core.Correlator.deformed)
      end
    in
    pack_bundle ~embed_telemetry ~jobs ~config ~source out;
    write_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:"Pack a store or trace directory into a single-file PTZ1 bundle.")
    Term.(
      const run $ src $ out $ window_ms $ entry_arg $ jobs_arg $ embed_telemetry $ telemetry)

let bundle_info_cmd =
  let run path =
    let reader = open_bundle path in
    let sections = Bundle.Reader.sections reader in
    let t = Core.Report.table ~title:path ~columns:[ "section"; "offset"; "bytes" ] in
    List.iter
      (fun (s : Bundle.Container.section) ->
        Core.Report.add_row t
          [
            s.Bundle.Container.name;
            Core.Report.cell_int s.Bundle.Container.pos;
            Core.Report.cell_int s.Bundle.Container.len;
          ])
      sections;
    Core.Report.print t;
    (match Bundle.Reader.summary_json reader with
    | Some summary -> Format.printf "%s@." (Core.Json.to_string ~indent:true summary)
    | None -> ());
    match Bundle.Reader.profiles reader with
    | Ok profiles ->
        List.iter
          (fun (p : Core.Analysis.profile) ->
            Format.printf "  %-48s %6d paths  mean %8.3f ms@." p.Core.Analysis.name
              p.Core.Analysis.count
              (p.Core.Analysis.mean_total_s *. 1e3))
          profiles
    | Error e -> Format.printf "  (patterns unavailable: %s)@." e
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a bundle: sections, packer summary, pattern profiles.")
    Term.(const run $ bundle_file_arg ~at:0 ~docv:"BUNDLE")

let bundle_walk_cmd =
  let cag_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "id" ] ~docv:"N" ~doc:"Walk the causal path with id $(docv).")
  in
  let pattern =
    Arg.(
      value
      & opt (some string) None
      & info [ "pattern" ] ~docv:"NAME"
          ~doc:"Walk a member of pattern $(docv) (default: the most frequent pattern).")
  in
  let index =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ] ~docv:"I" ~doc:"Which member of the pattern to walk (default 0).")
  in
  let run path cag_id pattern index json =
    let view = or_fail (Bundle.Walk.view (open_bundle path) ?cag_id ?pattern ?index ()) in
    Format.printf "%a@." Bundle.Walk.pp view;
    Option.iter (fun path -> write_json path (Bundle.Walk.to_json view)) json
  in
  Cmd.v
    (Cmd.info "walk"
       ~doc:
         "Step one request's causal path tier by tier: per-hop latency shares plus the raw \
          records behind every hop.")
    Term.(
      const run $ bundle_file_arg ~at:0 ~docv:"BUNDLE" $ cag_id $ pattern $ index
      $ result_json_arg)

let bundle_query_cmd =
  let run path (predicate, out) jobs =
    print_query out
      (or_fail (Bundle.Reader.query ~jobs:(jobs_of jobs) (open_bundle path) predicate))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Time-range/host query over a bundle's embedded store: the same manifest pruning \
          as a directory store, decoding segments in place.")
    Term.(const run $ bundle_file_arg ~at:0 ~docv:"BUNDLE" $ query_term $ jobs_arg)

let bundle_diff_cmd =
  let run path_a path_b json =
    let a = open_bundle path_a in
    let d = or_fail (Bundle.Diff.diff a (open_bundle path_b)) in
    Format.printf "%a@." Bundle.Diff.pp d;
    Option.iter (fun path -> write_json path (Bundle.Diff.to_json d)) json
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two bundles (baseline vs observed): pattern-mix drift, per-pattern \
          latency-share deltas, and the culprit subject.")
    Term.(
      const run
      $ bundle_file_arg ~at:0 ~docv:"BASELINE"
      $ bundle_file_arg ~at:1 ~docv:"OBSERVED"
      $ result_json_arg)

let bundle_cmd =
  Cmd.group
    (Cmd.info "bundle"
       ~doc:"Single-file PTZ1 trace recordings: pack, inspect, walk, query, diff.")
    [ bundle_pack_cmd; bundle_info_cmd; bundle_walk_cmd; bundle_query_cmd; bundle_diff_cmd ]

(* ---- mesh ---- *)

let mesh_report_json (r : Mesh.Presets.report) =
  let open Core.Json in
  Obj
    [
      ("preset", String r.Mesh.Presets.preset);
      ("seed", Int r.seed);
      ("accuracy", Float r.accuracy);
      ("correct", Int r.correct);
      ("total_requests", Int r.total_requests);
      ("false_positives", Int r.false_positives);
      ("false_negatives", Int r.false_negatives);
      ("paths", Int r.paths);
      ("patterns", Int r.patterns);
      ("records", Int r.records);
      ("retries", Int r.retries);
      ("cache_hits", Int r.cache_hits);
      ("cache_misses", Int r.cache_misses);
      ("async_jobs", Int r.async_jobs);
      ("served", Obj (List.map (fun (h, n) -> (h, Int n)) r.served));
      ("digest", String r.digest);
      ("correlation_time_s", Float r.correlation_time);
    ]

let mesh_cmd =
  let preset_arg =
    Arg.(
      value
      & pos 0 (some (preset_conv Mesh.Presets.names)) None
      & info [] ~docv:"PRESET"
          ~doc:"Scenario preset to run; omit (or pass $(b,--list)) to list them.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the available presets.")
  in
  let mesh_seed =
    Arg.(
      value
      & opt int Mesh.Presets.default_seed
      & info [ "seed" ] ~docv:"N" ~doc:"Random seed (skews, workload, topology).")
  in
  let mesh_window_ms =
    Arg.(
      value & opt float 5.0
      & info [ "window-ms" ] ~docv:"MS" ~doc:"Correlator sliding-window size, milliseconds.")
  in
  let describe = function
    | "control" -> "the healthy reference graph (faultless baseline)"
    | "cascading_failure" -> "slow db + retry policies: timeout-driven duplicate flows"
    | "hotspot_key" -> "key skew: one guaranteed-miss hot key hammers db partition db2"
    | "canary_slow_version" -> "one api replica runs 6x slow behind the load balancer"
    | "thundering_herd" -> "synchronized client burst into a slow async worker"
    | "random" -> "seeded random synchronous call tree (unconstrained topology)"
    | "random_mesh" -> "seeded random declarative DAG with caches and fan-out"
    | _ -> ""
  in
  let run preset list seed window_ms json =
    match preset with
    | Some preset when not list ->
        let window = ST.us (int_of_float (window_ms *. 1000.)) in
        let r = Mesh.Presets.run ~window ~seed preset in
        Format.printf "%a@." Mesh.Presets.pp_report r;
        (match r.Mesh.Presets.served with
        | [] -> ()
        | served ->
            Format.printf "served:";
            List.iter (fun (h, n) -> Format.printf " %s=%d" h n) served;
            Format.printf "@.");
        Option.iter (fun path -> write_json path (mesh_report_json r)) json
    | _ -> List.iter (fun n -> Format.printf "%-22s %s@." n (describe n)) Mesh.Presets.names
  in
  Cmd.v
    (Cmd.info "mesh"
       ~doc:
         "Run a declarative microservice-mesh scenario preset end-to-end: simulate the \
          service DAG, correlate its traces and score the derived \
          paths against the built-in oracle (see docs/MESH.md).")
    Term.(
      const run $ preset_arg $ list_flag $ mesh_seed $ mesh_window_ms
      $ result_json_arg)

let () =
  let info =
    Cmd.info "precisetracer" ~version:Version.version
      ~doc:"Precise request tracing for multi-tier services of black boxes (DSN 2009), reproduced."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd;
            correlate_cmd;
            evaluate_cmd;
            diagnose_cmd;
            store_cmd;
            bundle_cmd;
            mesh_cmd;
          ]))
