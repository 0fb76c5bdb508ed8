(* Tests for the fault-tolerant online pipeline: input quarantine (feed
   never raises), straggler eviction and resync, bounded-memory
   backpressure, and the GC safeguards (horizon clamp, evicted-send
   deformation). The feeds here are deliberately disordered, so records
   go in one at a time rather than through [Online.replay]. *)

module H = Test_helpers.Helpers
module S = Tiersim.Scenario
module Faults = Tiersim.Faults
module Activity = Trace.Activity
module Log = Trace.Log
module Ranker = Core.Ranker
module Online = Core.Online
module ST = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

let reason : Ranker.reject_reason Alcotest.testable =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Ranker.reject_reason_to_string r))
    ( = )

let result : Ranker.feed_result Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | Ranker.Accepted -> Format.pp_print_string fmt "Accepted"
      | Ranker.Resorted -> Format.pp_print_string fmt "Resorted"
      | Ranker.Quarantined r ->
          Format.fprintf fmt "Quarantined %s" (Ranker.reject_reason_to_string r))
    ( = )

let online_ranker ?(window = ST.ms 10) ?(skew_allowance = ST.ms 10) ?straggler_timeout
    ?max_buffered hosts =
  Ranker.create_online ~window ~skew_allowance ?straggler_timeout ?max_buffered
    ~has_mmap_send:(fun _ -> false)
    ~hosts ()

(* One record as a row, in the encoding a decoder fills arenas with. *)
let feed r (a : Activity.t) =
  Ranker.feed_row r
    ~kind:(Activity.kind_to_code a.kind)
    ~ts:(ST.to_ns a.timestamp)
    ~ctx:(Trace.Intern.context_id a.context)
    ~flow:(Trace.Intern.flow_id a.message.flow)
    ~size:a.message.size ~origin:(-1)

let web_begin ts = H.act ~kind:Activity.Begin ~ts ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:1
let app_begin ts = H.act ~kind:Activity.Begin ~ts ~ctx:H.app_ctx ~flow:H.web_app_flow ~size:1

(* Every candidate decidable so far. *)
let drain r =
  let rec loop acc = if Ranker.next r then loop (Ranker.candidate r :: acc) else List.rev acc in
  loop []

let ms n = n * 1_000_000

(* ---- quarantine: every reject reason, and never an exception ---- *)

let test_quarantine_unknown_host () =
  let r = online_ranker [ "web" ] in
  Alcotest.check result "unknown host quarantined"
    (Ranker.Quarantined Ranker.Unknown_host)
    (feed r (app_begin 0));
  Alcotest.(check int) "logged" 1 (List.length (Ranker.quarantine_log r))

let test_quarantine_after_close () =
  let r = online_ranker [ "web" ] in
  Ranker.close_input r;
  Alcotest.check result "post-close feed quarantined" (Ranker.Quarantined Ranker.Closed)
    (feed r (web_begin 0))

let test_quarantine_duplicate () =
  let r = online_ranker [ "web" ] in
  let a = web_begin 0 in
  Alcotest.check result "first copy accepted" Ranker.Accepted (feed r a);
  Alcotest.check result "second copy quarantined" (Ranker.Quarantined Ranker.Duplicate)
    (feed r a)

let test_quarantine_large_regression () =
  let r = online_ranker ~skew_allowance:(ST.ms 10) [ "web" ] in
  Alcotest.check result "t=50ms" Ranker.Accepted (feed r (web_begin (ms 50)));
  Alcotest.check result "40 ms behind is beyond the allowance"
    (Ranker.Quarantined Ranker.Regression)
    (feed r (web_begin (ms 10)))

let test_quarantine_stale_behind_commit () =
  (* web commits (pops) up to t=1ms while app's report at t=20ms keeps the
     pipeline moving; a late web record at t=0.5ms is within the skew
     allowance but behind the committed order: Stale, not Resorted. *)
  let r = online_ranker ~skew_allowance:(ST.ms 10) [ "web"; "app" ] in
  Alcotest.check result "web t=0" Ranker.Accepted (feed r (web_begin 0));
  Alcotest.check result "web t=1ms" Ranker.Accepted (feed r (web_begin (ms 1)));
  Alcotest.check result "app t=20ms" Ranker.Accepted (feed r (app_begin (ms 20)));
  let popped = drain r in
  Alcotest.(check int) "web records committed" 2 (List.length popped);
  Alcotest.check result "late record behind the commit point"
    (Ranker.Quarantined Ranker.Stale)
    (feed r (web_begin 500_000));
  Alcotest.(check (list (pair reason Alcotest.int)))
    "per-reason stats"
    [
      (Ranker.Unknown_host, 0); (Ranker.Closed, 0); (Ranker.Duplicate, 0);
      (Ranker.Regression, 0); (Ranker.Stale, 1);
    ]
    (Ranker.stats r).Ranker.quarantined

let test_resort_within_allowance () =
  (* A record 3 ms late (within the 10 ms allowance) is re-sorted into
     place: candidates still come out in timestamp order. *)
  let r = online_ranker ~skew_allowance:(ST.ms 10) [ "web" ] in
  Alcotest.check result "t=0" Ranker.Accepted (feed r (web_begin 0));
  Alcotest.check result "t=5ms" Ranker.Accepted (feed r (web_begin (ms 5)));
  Alcotest.check result "t=2ms resorted" Ranker.Resorted (feed r (web_begin (ms 2)));
  Ranker.close_input r;
  let ts = List.map (fun (a : Activity.t) -> ST.to_ns a.timestamp) (drain r) in
  Alcotest.(check (list int)) "timestamp order restored" [ 0; ms 2; ms 5 ] ts;
  Alcotest.(check int) "counted" 1 (Ranker.stats r).Ranker.resorted

let test_regression_after_reclaim () =
  (* Once more than 64 fetched rows are consumed the stream reclaims its
     prefix and lists no rows. A late record arriving right then must
     still be checked against what the stream already accepted. *)
  let r = online_ranker ~skew_allowance:(ST.ms 10) [ "web"; "app" ] in
  for i = 0 to 69 do
    Alcotest.check result "in order" Ranker.Accepted
      (feed r (web_begin (ms 20 + (i * 100_000))))
  done;
  Alcotest.check result "app t=200ms" Ranker.Accepted (feed r (app_begin (ms 200)));
  Alcotest.(check int) "web records committed" 70 (List.length (drain r));
  Alcotest.check result "behind the commit point" (Ranker.Quarantined Ranker.Stale)
    (feed r (web_begin (ms 25)));
  Alcotest.check result "beyond the allowance" (Ranker.Quarantined Ranker.Regression)
    (feed r (web_begin (ms 10)))

(* ---- straggler eviction and resync ---- *)

let test_straggler_eviction_and_resync () =
  let r = online_ranker ~straggler_timeout:(ST.ms 50) [ "web"; "app" ] in
  ignore (feed r (app_begin 0) : Ranker.feed_result);
  for i = 0 to 20 do
    ignore (feed r (web_begin (ms (10 * i))) : Ranker.feed_result)
  done;
  (* app last reported at t=0 while the watermark is at t=200ms: far past
     the 50 ms timeout, so it must not stall web's candidates. *)
  let popped = drain r in
  Alcotest.(check bool) "web emits despite the silent peer" true (List.length popped >= 20);
  Alcotest.(check int) "one straggler evicted" 1 (Ranker.stats r).Ranker.stragglers_evicted;
  Alcotest.(check int) "active straggler gauge" 1 (Ranker.stragglers_active r);
  (* app catches back up to within the timeout of the watermark. *)
  Alcotest.check result "catch-up accepted" Ranker.Accepted
    (feed r (app_begin (ms 180)));
  Alcotest.(check int) "resynced" 1 (Ranker.stats r).Ranker.straggler_resyncs;
  Alcotest.(check int) "no active stragglers" 0 (Ranker.stragglers_active r)

let test_no_eviction_without_timeout () =
  let r = online_ranker [ "web"; "app" ] in
  ignore (feed r (app_begin 0) : Ranker.feed_result);
  for i = 0 to 20 do
    ignore (feed r (web_begin (ms (10 * i))) : Ranker.feed_result)
  done;
  let popped = drain r in
  (* Without a straggler timeout the silent stream stalls everything past
     its last report plus the allowance. *)
  Alcotest.(check bool) "stalled behind the silent stream" true (List.length popped <= 2);
  Alcotest.(check int) "nothing evicted" 0 (Ranker.stats r).Ranker.stragglers_evicted

(* ---- bounded-memory backpressure ---- *)

let test_backpressure_bounds_held_records () =
  let limit = 50 in
  let r = online_ranker ~max_buffered:limit [ "web"; "app" ] in
  (* app never reports: without backpressure every web record would sit
     buffered forever waiting for reassurance. *)
  for i = 0 to 199 do
    ignore (feed r (web_begin (ms i)) : Ranker.feed_result);
    ignore (drain r : Activity.t list);
    Alcotest.(check bool)
      (Printf.sprintf "held <= limit after record %d" i)
      true
      (Ranker.held r <= limit)
  done;
  Alcotest.(check bool) "forced pops counted" true
    ((Ranker.stats r).Ranker.backpressure_pops > 0);
  Ranker.close_input r;
  ignore (drain r : Activity.t list);
  Alcotest.(check int) "every record still emitted" 200 (Ranker.stats r).Ranker.candidates

(* ---- never raises: adversarial feed accounting ---- *)

let request_config () =
  let transform = Core.Transform.config ~entry_points:[ H.ep "10.0.1.1" 80 ] () in
  Core.Correlator.config ~transform ~window:(ST.ms 10) ()

let prop_feed_never_raises_and_accounts =
  QCheck.Test.make ~count:50 ~name:"feed never raises; every record accounted"
    QCheck.(
      list_of_size
        Gen.(int_range 1 80)
        (quad (int_bound 2) (int_bound 50) (int_bound 3) bool))
    (fun records ->
      let r = online_ranker ~skew_allowance:(ST.ms 5) [ "web"; "app" ] in
      let accepted = ref 0 in
      let half = List.length records / 2 in
      List.iteri
        (fun i (h, ts_ms, k, reply) ->
          if i = half then Ranker.close_input r;
          let host = List.nth [ "web"; "app"; "mars" ] h in
          let kind =
            match k with
            | 0 -> Activity.Begin
            | 1 -> Activity.Send
            | 2 -> Activity.Receive
            | _ -> Activity.End_
          in
          let flow = if reply then H.web_client_flow else H.client_web_flow in
          let a = H.act ~kind ~ts:(ms ts_ms) ~ctx:(H.ctx ~host ()) ~flow ~size:1 in
          (match feed r a with
          | Ranker.Accepted | Ranker.Resorted -> incr accepted
          | Ranker.Quarantined _ -> ());
          ignore (drain r : Activity.t list))
        records;
      ignore (drain r : Activity.t list);
      !accepted + Ranker.quarantined_total r = List.length records)

(* ---- Online: observe after finish is quarantined, not an exception ---- *)

let test_observe_after_finish () =
  let w, _, _ = H.simple_request () in
  let cfg = request_config () in
  let online = Online.create ~config:cfg ~hosts:[ "web"; "app"; "db" ] () in
  Online.finish online;
  List.iter (H.observe_record online) w;
  let closed =
    List.filter (fun (r, _) -> r = Ranker.Closed) (Online.quarantine_log online)
  in
  Alcotest.(check int) "every post-close record quarantined as Closed" (List.length w)
    (List.length closed)

(* ---- GC safeguards ---- *)

let test_gc_clamp_keeps_trace_start_sends () =
  (* A request starting at t=0 with a small skew allowance: the periodic
     GC horizon (candidate ts - 2 * allowance) goes negative early in the
     trace and must clamp at the origin instead of evicting the opening
     SENDs. *)
  let logs = H.logs_of_request ~base:0 () in
  let transform = Core.Transform.config ~entry_points:[ H.ep "10.0.1.1" 80 ] () in
  let cfg =
    Core.Correlator.config ~transform ~window:(ST.ms 10) ~skew_allowance:(ST.ms 2) ()
  in
  let r = Core.Correlator.correlate cfg logs in
  Alcotest.(check int) "one complete path" 1 (List.length r.Core.Correlator.cags);
  Alcotest.(check int) "nothing evicted" 0
    r.Core.Correlator.engine_stats.Core.Cag_engine.evicted_sends

let test_gc_eviction_flags_open_cag_deformed () =
  let engine = Core.Cag_engine.create () in
  Core.Cag_engine.step engine (web_begin 0);
  Core.Cag_engine.step engine
    (H.act ~kind:Activity.Send ~ts:(ms 1) ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1);
  (* The RECEIVE never arrives; GC past the send must count the eviction
     and flag the still-open path as deformed. *)
  let evicted = Core.Cag_engine.gc engine ~older_than:(ST.of_ns (ms 100)) in
  Alcotest.(check bool) "something evicted" true (evicted >= 1);
  Alcotest.(check int) "evicted send counted" 1
    (Core.Cag_engine.stats engine).Core.Cag_engine.evicted_sends;
  match Core.Cag_engine.unfinished engine with
  | [ cag ] -> Alcotest.(check bool) "open path deformed" true (Core.Cag.is_deformed cag)
  | l -> Alcotest.failf "expected one open path, got %d" (List.length l)

(* ---- end to end: one host permanently silent mid-run ---- *)

let test_silent_host_end_to_end () =
  let spec =
    {
      S.default with
      S.clients = 20;
      time_scale = 0.02;
      faults =
        [ Faults.host_silence ~host:"app1" ~after:(ST.span_scale 0.02 (ST.ms 300_000)) ];
    }
  in
  let outcome = S.run spec in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let hosts = List.map Log.hostname outcome.S.logs in
  let arenas = Trace.Arena.of_collection outcome.S.logs in
  let replay ?straggler_timeout () =
    let online = Online.create ~config:cfg ~hosts ?straggler_timeout () in
    Online.replay online arenas;
    let live = List.length (Online.paths online) in
    Online.finish online;
    (online, live)
  in
  let _, live_stalled = replay () in
  let online, live = replay ~straggler_timeout:(ST.ms 500) () in
  let paths = Online.paths online in
  Alcotest.(check bool) "paths produced" true (List.length paths > 0);
  Alcotest.(check bool) "straggler evicted" true
    ((Online.ranker_stats online).Ranker.stragglers_evicted >= 1);
  Alcotest.(check bool) "keeps emitting after the silence" true (live > live_stalled);
  Alcotest.(check bool) "post-silence paths flagged deformed" true
    (List.exists Core.Cag.is_deformed paths);
  Alcotest.(check int) "clean feed, nothing quarantined" 0
    (List.length (Online.quarantine_log online))

(* ---- end to end: the in-band collection plane vs out-of-band logs ---- *)

(* One canonical string per path: the pattern signature plus the full
   rendered breakdown, so "byte-identical" means exactly that. *)
let canon cags =
  List.sort compare
    (List.map
       (fun c -> Core.Pattern.signature_of c ^ "\n" ^ Core.Cag_render.render c)
       cags)

let install_collect svc deploy =
  deploy := Some (Collect.Deploy.install ~telemetry:(Telemetry.Registry.create ()) svc)

let check_identity_of what (s : Collect.Agent.stats) =
  Alcotest.(check int)
    (what ^ ": observed = reduced + dropped + acked + spooled + queued")
    s.Collect.Agent.observed
    (s.Collect.Agent.reduced + Collect.Agent.dropped_total s
   + s.Collect.Agent.acked_records + s.Collect.Agent.spooled_records
   + s.Collect.Agent.queued_records)

let test_in_band_equals_out_of_band () =
  (* Same run, two collection paths: the agents ship every record in-band
     over the simulated network to the online correlation, while the
     scenario's out-of-band logs capture the probe output directly. A
     faultless shipping plane must not change a single byte of the
     resulting patterns or latency breakdowns. *)
  let spec = { S.default with S.clients = 20; time_scale = 0.02 } in
  let deploy = ref None in
  let outcome =
    S.run
      ~before_run:(fun svc -> install_collect svc deploy)
      ~after_run:(fun _ -> Collect.Deploy.finish (Option.get !deploy))
      spec
  in
  let d = Option.get !deploy in
  let online = Collect.Deploy.online d in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let offline = Core.Correlator.correlate cfg outcome.S.logs in
  Alcotest.(check int) "clean delivery, nothing quarantined" 0
    (List.length (Online.quarantine_log online));
  Alcotest.(check (list string))
    "patterns and breakdowns byte-identical to out-of-band"
    (canon offline.Core.Correlator.cags)
    (canon (Online.paths online));
  Alcotest.(check (list string))
    "deformed paths byte-identical to out-of-band"
    (canon offline.Core.Correlator.deformed)
    (canon (Online.deformed online));
  (* every probe record reached an agent, and every agent reconciles *)
  let total_logged = List.fold_left (fun acc l -> acc + Log.length l) 0 outcome.S.logs in
  let observed, acked =
    List.fold_left
      (fun (o, a) agent ->
        let s = Collect.Agent.stats agent in
        check_identity_of "faultless end to end" s;
        Alcotest.(check int)
          (Collect.Agent.host agent ^ ": no loss on a faultless run")
          0
          (Collect.Agent.dropped_total s);
        (o + s.Collect.Agent.observed, a + s.Collect.Agent.acked_records))
      (0, 0) (Collect.Deploy.agents d)
  in
  Alcotest.(check int) "agents observed exactly the out-of-band records" total_logged
    observed;
  Alcotest.(check int) "collector delivered exactly the acked records" acked
    (Collect.Collector.delivered_records (Collect.Deploy.collector d))

let test_agent_crash_subset_and_accounting () =
  (* app1's agent crashes mid-run and restarts two scaled minutes later:
     records observed while it is down are lost at the edge, so the
     in-band complete paths must be a strict subset of what the
     out-of-band logs support, the outage-spanning paths must surface as
     deformed, and the pt_collect_* accounting must reconcile. *)
  let scale = 0.02 in
  let spec =
    {
      S.default with
      S.clients = 20;
      time_scale = scale;
      faults =
        [
          Faults.agent_crash ~host:"app1"
            ~after:(ST.span_scale scale (ST.ms 200_000))
            ~restart_after:(Some (ST.span_scale scale (ST.ms 100_000)));
        ];
    }
  in
  let deploy = ref None in
  let outcome =
    S.run
      ~before_run:(fun svc -> install_collect svc deploy)
      ~after_run:(fun _ -> Collect.Deploy.finish (Option.get !deploy))
      spec
  in
  let d = Option.get !deploy in
  let online = Collect.Deploy.online d in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let offline = Core.Correlator.correlate cfg outcome.S.logs in
  let intact, truncated =
    List.partition (fun c -> not (Core.Cag.is_deformed c)) (Online.paths online)
  in
  let on_complete = canon intact in
  let off_complete = canon offline.Core.Correlator.cags in
  Alcotest.(check bool) "every intact in-band path exists out-of-band" true
    (List.for_all (fun p -> List.mem p off_complete) on_complete);
  Alcotest.(check bool) "the outage lost at least one path" true
    (List.length on_complete < List.length off_complete);
  (* requests whose app1 records were dropped close as truncated
     renditions (an unmatched interior SEND) and must say so *)
  Alcotest.(check bool) "outage-spanning paths flagged deformed" true
    (List.length truncated > 0);
  let app = Option.get (Collect.Deploy.agent d ~host:"app1") in
  let s = Collect.Agent.stats app in
  check_identity_of "crashed agent" s;
  Alcotest.(check bool) "records dropped at the edge" true
    (Collect.Agent.dropped_total s > 0);
  Alcotest.(check bool) "agent reconnected after restart" true
    (s.Collect.Agent.connections >= 2);
  let acked =
    List.fold_left
      (fun a agent ->
        check_identity_of "crash end to end" (Collect.Agent.stats agent);
        a + (Collect.Agent.stats agent).Collect.Agent.acked_records)
      0 (Collect.Deploy.agents d)
  in
  Alcotest.(check int) "delivered = emitted - dropped - still-buffered" acked
    (Collect.Collector.delivered_records (Collect.Deploy.collector d))

(* ---- frame-size invariance: a collector frame is only a delivery unit ---- *)

(* The order-free form of a run's paths: each path as its sorted vertex
   set and its sorted parent-edge set, the paths sorted. Concurrent
   sibling calls may complete in another order online than offline, so
   the comparison takes order out. A vertex is named by its activity and
   its source rows. *)
let order_free cags =
  let vertex (v : Core.Cag.vertex) =
    Format.asprintf "%a@%a" Activity.pp v.Core.Cag.activity
      Fmt.(list ~sep:comma int)
      (List.sort compare (Core.Cag.sources v))
  in
  let edge (p, kind, c) = Format.asprintf "%s %a %s" (vertex p) Core.Cag.pp_edge_kind kind (vertex c) in
  List.sort compare
    (List.map
       (fun c ->
         ( List.sort compare (List.map vertex (Core.Cag.vertices c)),
           List.sort compare (List.map edge (Core.Cag.edges c)) ))
       cags)

(* Cut each host's arena into consecutive frames of [rows ()] rows and
   order the frames as a collector delivers agent batches: by watermark
   (the frame's last timestamp), ties to the lower host index, then to
   the earlier frame. Each frame is PTC1-encoded. *)
let cut_frames arenas rows =
  let frames = ref [] in
  List.iteri
    (fun h a ->
      let n = Trace.Arena.length a in
      let rec cut seq lo =
        if lo < n then begin
          let hi = Int.min n (lo + rows ()) in
          let chunk = Trace.Arena.create_sid ~capacity:(hi - lo) (Trace.Arena.host_sid a) in
          Trace.Arena.append_range chunk a ~lo ~hi;
          let wm = Trace.Arena.ts a (hi - 1) in
          let bytes =
            Collect.Frame.encode ~seq ~oldest:seq ~host:(Trace.Arena.hostname a)
              ~watermark:(ST.of_ns wm)
              ~payload:(Collect.Frame.encode_payload_arena chunk)
          in
          frames := ((wm, h, seq), bytes) :: !frames;
          cut (seq + 1) hi
        end
      in
      cut 0 0)
    arenas;
  List.map (fun ((_, h, _), b) -> (h, b)) (List.sort (fun (a, _) (b, _) -> compare a b) !frames)

(* Decode the frames through one PTC1 decoder per host and feed each
   frame's arena to an online run: the paths completed before [finish],
   and the run. *)
let deliver cfg arenas frames =
  let hosts = List.map Trace.Arena.hostname arenas in
  let online = Online.create ~telemetry:(Telemetry.Registry.create ()) ~config:cfg ~hosts () in
  let decoders = Array.of_list (List.map (fun _ -> Collect.Frame.Decoder.create ()) hosts) in
  List.iter
    (fun (h, bytes) ->
      Collect.Frame.Decoder.feed decoders.(h) bytes;
      match Collect.Frame.Decoder.next decoders.(h) with
      | Ok (Some f) -> Online.observe_arena online f.Collect.Frame.arena
      | Ok None -> Alcotest.fail "frame incomplete"
      | Error e -> Alcotest.failf "frame decode: %s" e)
    frames;
  let live = List.length (Online.paths online) in
  Online.finish online;
  (live, online)

let noisy_rubis =
  lazy
    (let o =
       S.run
         {
           S.default with
           S.mix = Tiersim.Workload.Default;
           clients = 30;
           time_scale = 0.02;
           skew = ST.ms 200;
           noise = S.Paper_noise { db_connections = 2 };
         }
     in
     (Core.Correlator.config ~transform:o.S.transform (), Trace.Arena.of_collection o.S.logs))

let mesh_control =
  lazy
    (let spec = Option.get (Mesh.Presets.spec_of ~seed:7 "control") in
     let spec = { spec with Mesh.Spec.clients = 16; requests_per_client = 20 } in
     let b = Mesh.Runtime.build spec in
     Simnet.Engine.run b.Mesh.Runtime.engine;
     let transform = Core.Transform.config ~entry_points:b.Mesh.Runtime.entries () in
     ( Core.Correlator.config ~transform ~window:(ST.ms 5) (),
       Trace.Arena.of_collection (Trace.Probe.logs b.Mesh.Runtime.probe) ))

(* On both runs, online paths over frames of 1 to [max_rows] random rows
   equal the offline paths of the same arenas; with frames of at most 256
   rows (the agent batch default) most paths complete before [finish]. *)
let prop_frame_size_invariance =
  QCheck.Test.make ~count:4 ~name:"frame size: online = offline paths"
    QCheck.(pair (int_range 1 512) int)
    (fun (max_rows, seed) ->
      List.iter
        (fun run ->
          let cfg, arenas = Lazy.force run in
          let offline = Core.Correlator.correlate_arena cfg arenas in
          let rng = Random.State.make [| seed |] in
          let frames = cut_frames arenas (fun () -> 1 + Random.State.int rng max_rows) in
          let live, online = deliver cfg arenas frames in
          let paths = Online.paths online in
          if order_free paths <> order_free offline.Core.Correlator.cags then
            QCheck.Test.fail_reportf "%d online paths differ from %d offline"
              (List.length paths)
              (List.length offline.Core.Correlator.cags);
          if List.length (Online.deformed online) <> List.length offline.Core.Correlator.deformed
          then QCheck.Test.fail_report "unfinished counts differ";
          if max_rows <= 256 && 2 * live <= List.length paths then
            QCheck.Test.fail_reportf "only %d of %d paths before finish" live
              (List.length paths))
        [ noisy_rubis; mesh_control ];
      true)

let () =
  Alcotest.run "online_faults"
    [
      ( "quarantine",
        [
          Alcotest.test_case "unknown host" `Quick test_quarantine_unknown_host;
          Alcotest.test_case "after close" `Quick test_quarantine_after_close;
          Alcotest.test_case "duplicate" `Quick test_quarantine_duplicate;
          Alcotest.test_case "large regression" `Quick test_quarantine_large_regression;
          Alcotest.test_case "stale behind commit" `Quick test_quarantine_stale_behind_commit;
          Alcotest.test_case "resort within allowance" `Quick test_resort_within_allowance;
          Alcotest.test_case "regression after reclaim" `Quick test_regression_after_reclaim;
          qtest prop_feed_never_raises_and_accounts;
        ] );
      ( "straggler",
        [
          Alcotest.test_case "eviction and resync" `Quick test_straggler_eviction_and_resync;
          Alcotest.test_case "no eviction without timeout" `Quick
            test_no_eviction_without_timeout;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "bounds held records" `Quick test_backpressure_bounds_held_records ]
      );
      ( "online",
        [
          Alcotest.test_case "observe after finish" `Quick test_observe_after_finish;
          Alcotest.test_case "silent host end to end" `Slow test_silent_host_end_to_end;
          qtest prop_frame_size_invariance;
        ] );
      ( "gc",
        [
          Alcotest.test_case "horizon clamped at origin" `Quick
            test_gc_clamp_keeps_trace_start_sends;
          Alcotest.test_case "eviction flags open path" `Quick
            test_gc_eviction_flags_open_cag_deformed;
        ] );
      ( "collect",
        [
          Alcotest.test_case "in-band equals out-of-band" `Slow
            test_in_band_equals_out_of_band;
          Alcotest.test_case "agent crash: subset, deformed, accounting" `Slow
            test_agent_crash_subset_and_accounting;
        ] );
    ]
