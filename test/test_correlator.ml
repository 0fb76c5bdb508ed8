(* Integration tests for the full Correlator pipeline over hand-built and
   synthetic multi-request logs. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Log = Trace.Log
module Correlator = Core.Correlator
module Transform = Core.Transform
module Cag = Core.Cag
module Sim_time = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

let entry = H.ep "10.0.1.1" 80

(* Raw (SEND/RECEIVE only) logs for n interleaved requests across three
   nodes, with per-node skews. Request i runs on its own web worker but
   they overlap in time. Client, web and app sit at [net].0.1, [net].1.1
   and [net].2.1; the entry point is [net].1.1:80. *)
let raw_multi_request ?(n = 5) ?(askew = 0) ?(dskew = 0) ?(net = "10.0") () =
  let per_request i =
    let base = i * 300_000 in
    let web_ctx = H.ctx ~host:"web" ~program:"httpd" ~pid:(10 + i) ~tid:(10 + i) () in
    let app_ctx = H.ctx ~host:"app" ~program:"java" ~pid:20 ~tid:(210 + i) () in
    let client_flow = H.flow (net ^ ".0.1") (40_000 + i) (net ^ ".1.1") 80 in
    let back_flow = Simnet.Address.reverse client_flow in
    let wa_flow = H.flow (net ^ ".1.1") (41_000 + i) (net ^ ".2.1") 8009 in
    let aw_flow = Simnet.Address.reverse wa_flow in
    let w t = base + t and a t = base + t + askew in
    ( [
        H.act ~kind:Activity.Receive ~ts:(w 0) ~ctx:web_ctx ~flow:client_flow ~size:400;
        H.act ~kind:Activity.Send ~ts:(w 1_000_000) ~ctx:web_ctx ~flow:wa_flow ~size:500;
        H.act ~kind:Activity.Receive ~ts:(w 5_000_000) ~ctx:web_ctx ~flow:aw_flow ~size:2000;
        H.act ~kind:Activity.Send ~ts:(w 6_000_000) ~ctx:web_ctx ~flow:back_flow ~size:2400;
      ],
      [
        H.act ~kind:Activity.Receive ~ts:(a 2_000_000) ~ctx:app_ctx ~flow:wa_flow ~size:500;
        H.act ~kind:Activity.Send ~ts:(a 4_000_000) ~ctx:app_ctx ~flow:aw_flow ~size:2000;
      ] )
  in
  let parts = List.init n per_request in
  let web = List.concat_map fst parts in
  let app = List.concat_map snd parts in
  ignore dskew;
  [ Log.of_list ~hostname:"web" web; Log.of_list ~hostname:"app" app ]

let correlate ?(window = Sim_time.ms 10) ?(drop_programs = []) logs =
  let cfg =
    Correlator.config
      ~transform:(Transform.config ~entry_points:[ entry ] ~drop_programs ())
      ~window ()
  in
  Correlator.correlate cfg logs

let classify cfg a = Option.map (fun (a : Activity.t) -> a.kind) (H.transform_record cfg a)

let test_transform_classifies () =
  let cfg = Transform.config ~entry_points:[ entry ] () in
  let begin_raw =
    H.act ~kind:Activity.Receive ~ts:0 ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:1
  in
  let end_raw = H.act ~kind:Activity.Send ~ts:1 ~ctx:H.web_ctx ~flow:H.web_client_flow ~size:1 in
  let inner = H.act ~kind:Activity.Send ~ts:2 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1 in
  (match classify cfg begin_raw with
  | Some k -> Alcotest.(check bool) "BEGIN" true (Activity.equal_kind k Activity.Begin)
  | None -> Alcotest.fail "dropped");
  (match classify cfg end_raw with
  | Some k -> Alcotest.(check bool) "END" true (Activity.equal_kind k Activity.End_)
  | None -> Alcotest.fail "dropped");
  match classify cfg inner with
  | Some k -> Alcotest.(check bool) "SEND kept" true (Activity.equal_kind k Activity.Send)
  | None -> Alcotest.fail "dropped"

let test_transform_filters () =
  let cfg =
    Transform.config ~entry_points:[ entry ] ~drop_programs:[ "sshd" ] ~drop_ports:[ 22 ] ()
  in
  let sshd =
    H.act ~kind:Activity.Send ~ts:0
      ~ctx:(H.ctx ~program:"sshd" ())
      ~flow:H.web_app_flow ~size:10
  in
  let port22 =
    H.act ~kind:Activity.Send ~ts:0 ~ctx:H.web_ctx ~flow:(H.flow "1.1.1.1" 22 "2.2.2.2" 5) ~size:10
  in
  Alcotest.(check bool) "program filtered" true (classify cfg sshd = None);
  Alcotest.(check bool) "port filtered" true (classify cfg port22 = None)

let test_pipeline_single_request () =
  (* End-to-end: raw logs in TCP_TRACE shape -> one valid CAG. *)
  let logs = raw_multi_request ~n:1 () in
  let result = correlate logs in
  Alcotest.(check int) "one CAG" 1 (List.length result.Correlator.cags);
  Alcotest.(check int) "no deformed" 0 (List.length result.deformed);
  H.check_valid (List.hd result.Correlator.cags)

let test_pipeline_many_interleaved () =
  let logs = raw_multi_request ~n:50 () in
  let result = correlate logs in
  Alcotest.(check int) "fifty CAGs" 50 (List.length result.Correlator.cags);
  List.iter H.check_valid result.Correlator.cags;
  let stats = result.engine_stats in
  Alcotest.(check int) "no orphans" 0 stats.Core.Cag_engine.orphans;
  Alcotest.(check int) "no unmatched" 0 stats.unmatched_receives

let test_pipeline_under_skew () =
  (* 400ms app-node skew with a 1ms window. *)
  let logs = raw_multi_request ~n:20 ~askew:400_000_000 () in
  let result = correlate ~window:(Sim_time.ms 1) logs in
  Alcotest.(check int) "all CAGs" 20 (List.length result.Correlator.cags);
  Alcotest.(check int) "no noise discards" 0
    result.ranker_stats.Core.Ranker.noise_discarded

let test_pipeline_drop_filter () =
  (* Mixing in name-filterable noise does not change the result. *)
  let logs = raw_multi_request ~n:10 () in
  let noise_ctx = H.ctx ~host:"web" ~program:"sshd" ~pid:999 ~tid:999 () in
  let noise_flow = H.flow "10.0.1.1" 50000 "10.0.9.9" 22 in
  let with_noise =
    List.map
      (fun log ->
        if String.equal (Log.hostname log) "web" then
          Log.of_list ~hostname:"web"
            (Log.to_list log
            @ List.init 40 (fun i ->
                  H.act ~kind:Activity.Send ~ts:(i * 100_000) ~ctx:noise_ctx ~flow:noise_flow
                    ~size:10))
        else log)
      logs
  in
  let result = correlate ~drop_programs:[ "sshd" ] with_noise in
  Alcotest.(check int) "ten CAGs" 10 (List.length result.Correlator.cags);
  Alcotest.(check int) "no orphans" 0 result.engine_stats.Core.Cag_engine.orphans

let test_pipeline_loss_detectable () =
  (* Dropping activities deforms some CAGs; deformed + finished covers all
     requests whose BEGIN survived. *)
  let logs = raw_multi_request ~n:40 () in
  let rng = Simnet.Rng.create ~seed:5 in
  let lossy = Trace.Loss.drop ~rng ~p:0.05 logs in
  let result = correlate lossy in
  let finished = List.length result.Correlator.cags in
  let deformed = List.length result.deformed in
  Alcotest.(check bool) "some loss visible" true (finished < 40);
  Alcotest.(check bool) "deformed CAGs reported" true (deformed > 0);
  (* Deformed paths are the rare class - the paper's detectability claim. *)
  Alcotest.(check bool) "normal dominates" true (finished > deformed)

let test_save_load_then_correlate () =
  let dir = Filename.temp_file "ptc" "" in
  Sys.remove dir;
  let logs = raw_multi_request ~n:8 () in
  Log.save logs ~dir;
  (match Log.load ~dir with
  | Ok loaded ->
      let result = correlate loaded in
      Alcotest.(check int) "eight CAGs from disk" 8 (List.length result.Correlator.cags)
  | Error e -> Alcotest.fail e);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_streaming_callback_order () =
  let logs = raw_multi_request ~n:6 () in
  let seen = ref [] in
  let cfg =
    Correlator.config ~transform:(Transform.config ~entry_points:[ entry ] ()) ()
  in
  let result =
    Correlator.correlate cfg logs ~on_path:(fun cag ->
        seen := Sim_time.to_ns (Cag.begin_ts cag) :: !seen)
  in
  Alcotest.(check int) "callback per path" 6 (List.length !seen);
  Alcotest.(check bool) "completion order by begin ts" true
    (List.rev !seen = List.sort compare !seen);
  Alcotest.(check int) "also in result" 6 (List.length result.Correlator.cags)

let test_multiple_entry_points () =
  (* Two front-end hosts (e.g. load-balanced virtual hosts): both are entry
     points and requests through either correlate. *)
  let request ~web_host ~web_ip ~port_base =
    let web_ctx = H.ctx ~host:web_host ~program:"httpd" ~pid:10 ~tid:10 () in
    let app_ctx = H.ctx ~host:"app" ~program:"java" ~pid:20 ~tid:(21 + port_base) () in
    let client_flow = H.flow "10.0.0.1" (40_000 + port_base) web_ip 80 in
    let back_flow = Simnet.Address.reverse client_flow in
    let wa_flow = H.flow web_ip (41_000 + port_base) "10.0.2.1" 8009 in
    let aw_flow = Simnet.Address.reverse wa_flow in
    ( [
        H.act ~kind:Activity.Receive ~ts:0 ~ctx:web_ctx ~flow:client_flow ~size:400;
        H.act ~kind:Activity.Send ~ts:1_000_000 ~ctx:web_ctx ~flow:wa_flow ~size:500;
        H.act ~kind:Activity.Receive ~ts:5_000_000 ~ctx:web_ctx ~flow:aw_flow ~size:2000;
        H.act ~kind:Activity.Send ~ts:6_000_000 ~ctx:web_ctx ~flow:back_flow ~size:2400;
      ],
      [
        H.act ~kind:Activity.Receive ~ts:2_000_000 ~ctx:app_ctx ~flow:wa_flow ~size:500;
        H.act ~kind:Activity.Send ~ts:4_000_000 ~ctx:app_ctx ~flow:aw_flow ~size:2000;
      ] )
  in
  let w1, a1 = request ~web_host:"webA" ~web_ip:"10.0.1.1" ~port_base:0 in
  let w2, a2 = request ~web_host:"webB" ~web_ip:"10.0.1.2" ~port_base:1 in
  let logs =
    [
      Log.of_list ~hostname:"webA" w1;
      Log.of_list ~hostname:"webB" w2;
      Log.of_list ~hostname:"app" (a1 @ a2);
    ]
  in
  let cfg =
    Correlator.config
      ~transform:
        (Transform.config
           ~entry_points:[ H.ep "10.0.1.1" 80; H.ep "10.0.1.2" 80 ]
           ())
      ()
  in
  let result = Correlator.correlate cfg logs in
  Alcotest.(check int) "both requests resolved" 2 (List.length result.Correlator.cags);
  List.iter H.check_valid result.Correlator.cags;
  let hosts =
    List.map
      (fun cag -> (Cag.root cag).Cag.activity.Activity.context.host)
      result.Correlator.cags
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "one per front host" [ "webA"; "webB" ] hosts

let test_memory_proxy_grows_with_window () =
  let logs = raw_multi_request ~n:60 () in
  let small = correlate ~window:(Sim_time.ms 1) logs in
  let big = correlate ~window:(Sim_time.sec 10) logs in
  Alcotest.(check bool) "bigger window, bigger peak" true
    (big.Correlator.peak_memory_proxy > small.Correlator.peak_memory_proxy)

let prop_interleaved_requests_all_resolve =
  QCheck.Test.make ~name:"any interleaving count/skew resolves all requests" ~count:60
    QCheck.(
      triple (int_range 1 30)
        (int_range (-200_000_000) 200_000_000)
        (int_range 1 100))
    (fun (n, askew, win_ms) ->
      let logs = raw_multi_request ~n ~askew () in
      let result = correlate ~window:(Sim_time.ms win_ms) logs in
      List.length result.Correlator.cags = n
      && result.deformed = []
      && result.engine_stats.Core.Cag_engine.orphans = 0
      && result.ranker_stats.Core.Ranker.forced_discards = 0
      && List.for_all (fun c -> Cag.validate c = Ok ()) result.Correlator.cags)

(* ---- native (arena) path equivalence ---- *)

let collection_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         String.equal (Log.hostname x) (Log.hostname y)
         && Log.length x = Log.length y
         && List.for_all2 Activity.equal (Log.to_list x) (Log.to_list y))
       a b

(* The record-level transform the memoised row path replaced, kept as the
   reference [Transform.apply_native] must reproduce record for record:
   program match, port match, then the entry-point BEGIN/END rewrite. *)
let reference_record (cfg : Transform.config) (a : Activity.t) =
  let is_entry ep = List.exists (Simnet.Address.endpoint_equal ep) cfg.entry_points in
  let flow = a.message.flow in
  if
    List.mem a.context.program cfg.drop_programs
    || List.exists (fun p -> flow.src.port = p || flow.dst.port = p) cfg.drop_ports
  then None
  else
    let kind =
      match a.kind with
      | Activity.Receive when is_entry flow.dst -> Activity.Begin
      | Activity.Send when is_entry flow.src -> Activity.End_
      | k -> k
    in
    Some { a with kind }

let reference_apply cfg logs = Log.map_activities (reference_record cfg) logs

(* Per host: the kept records with the raw row each came from, in log
   order (a stable time sort, since the rewrite changes kind priorities). *)
let reference_rows cfg logs =
  List.map
    (fun log ->
      Log.to_list log
      |> List.mapi (fun i a -> Option.map (fun a -> (a, i)) (reference_record cfg a))
      |> List.filter_map Fun.id
      |> List.stable_sort (fun (a, _) (b, _) -> Activity.compare_by_time a b))
    logs

let native_rows cfg logs =
  List.map
    (fun out ->
      List.init (Trace.Arena.length out) (fun i ->
          (Trace.Arena.get out i, Trace.Arena.origin out i)))
    (Transform.apply_native cfg (Trace.Arena.of_collection logs))

(* Random configurations drawn from what a trace holds: entry points
   among its flows' endpoints, dropped programs among its contexts'
   programs, dropped ports among its flows' ports. *)
let gen_transform logs =
  let acts = List.concat_map Log.to_list logs in
  let uniq l = List.sort_uniq compare l in
  let endpoints =
    uniq
      (List.concat_map
         (fun (a : Activity.t) -> [ a.message.flow.src; a.message.flow.dst ])
         acts)
  in
  let programs = uniq (List.map (fun (a : Activity.t) -> a.context.program) acts) in
  let ports = uniq (List.map (fun (e : Simnet.Address.endpoint) -> e.port) endpoints) in
  let open QCheck.Gen in
  let some pool n = list_size (int_bound n) (oneofl pool) in
  map
    (fun (entry_points, drop_programs, drop_ports) ->
      Transform.config ~entry_points ~drop_programs ~drop_ports ())
    (triple (some endpoints 4) (some programs 2) (some ports 3))

let print_transform (cfg : Transform.config) =
  Format.asprintf "entry [%a] drop programs [%s] drop ports [%s]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Simnet.Address.pp_endpoint)
    cfg.entry_points
    (String.concat " " cfg.drop_programs)
    (String.concat " " (List.map string_of_int cfg.drop_ports))

let prop_apply_native_is_reference (name, logs) =
  QCheck.Test.make
    ~name:(Printf.sprintf "apply_native = per-row reference on %s" name)
    ~count:25
    (QCheck.make ~print:print_transform (gen_transform (Lazy.force logs)))
    (fun cfg ->
      let logs = Lazy.force logs in
      List.for_all2
        (List.equal (fun (a, i) (b, j) -> Activity.equal a b && i = j))
        (reference_rows cfg logs) (native_rows cfg logs))

let rubis_paper_noise =
  lazy
    (let module S = Tiersim.Scenario in
     (S.run
        {
          S.default with
          S.clients = 30;
          time_scale = 0.05;
          seed = 5;
          noise = S.Paper_noise { db_connections = 2 };
        })
       .S.logs)

let mesh_control =
  lazy
    (let spec = Option.get (Mesh.Presets.spec_of ~seed:7 "control") in
     let b = Mesh.Runtime.build { spec with Mesh.Spec.clients = 8; requests_per_client = 10 } in
     Simnet.Engine.run b.Mesh.Runtime.engine;
     Trace.Probe.logs b.Mesh.Runtime.probe)

(* An online run's memo is sized to the ids interned when it is created;
   a flow or context interned later grows it mid-feed. Every request
   here is on flows and contexts interned after [Online.create] and past
   the memo's initial size, and is still classified as offline. *)
let test_online_memo_grows () =
  let net = "10.251" in
  let cfg =
    Correlator.config
      ~transform:(Transform.config ~entry_points:[ H.ep (net ^ ".1.1") 80 ] ())
      ()
  in
  let online =
    Core.Online.create ~telemetry:(Telemetry.Registry.create ()) ~config:cfg
      ~hosts:[ "web"; "app" ] ()
  in
  let _, contexts, flows = Trace.Intern.counts () in
  for i = 0 to max contexts flows + 300 do
    ignore
      (Trace.Intern.flow_id (H.flow "10.252.0.1" (i mod 60_000) "10.252.0.2" (1 + (i / 60_000))));
    ignore (Trace.Intern.context_id (H.ctx ~host:"memo-filler" ~pid:i ()))
  done;
  let logs =
    List.map
      (fun log ->
        (* fresh contexts too: every worker on a new pid *)
        Log.of_list ~hostname:(Log.hostname log)
          (List.map
             (fun (a : Activity.t) ->
               { a with context = { a.context with pid = a.context.pid + 70_000 } })
             (Log.to_list log)))
      (raw_multi_request ~n:6 ~net ())
  in
  let arenas = Trace.Arena.of_collection logs in
  let first = Trace.Arena.get (List.hd arenas) 0 in
  Alcotest.(check bool) "flows interned past the memo" true
    (Trace.Intern.flow_id first.Activity.message.flow > max 256 flows);
  Alcotest.(check bool) "contexts interned past the memo" true
    (Trace.Intern.context_id first.Activity.context > max 64 contexts);
  Core.Online.replay online (List.map Trace.Arena.sorted arenas);
  Core.Online.finish online;
  let offline = Correlator.correlate_arena cfg arenas in
  let signatures cags = List.sort compare (List.map Core.Pattern.signature_of cags) in
  Alcotest.(check int) "every request finished" 6 (List.length (Core.Online.paths online));
  Alcotest.(check (list string))
    "online = offline" (signatures offline.Correlator.cags)
    (signatures (Core.Online.paths online))

let test_apply_native_matches_apply () =
  let logs = raw_multi_request ~n:4 ~askew:1500 () in
  (* exercise every filter class *)
  let cfg =
    Transform.config ~entry_points:[ entry ] ~drop_programs:[ "java" ] ~drop_ports:[ 8009 ] ()
  in
  let legacy = reference_apply cfg logs in
  let native =
    Trace.Arena.to_collection (Transform.apply_native cfg (Trace.Arena.of_collection logs))
  in
  Alcotest.(check bool) "filtered collections identical" true (collection_equal legacy native);
  (* and with no filter at all *)
  let cfg = Transform.config ~entry_points:[ entry ] () in
  let legacy = reference_apply cfg logs in
  let native =
    Trace.Arena.to_collection (Transform.apply_native cfg (Trace.Arena.of_collection logs))
  in
  Alcotest.(check bool) "classified collections identical" true (collection_equal legacy native)

let test_correlate_arena_matches_correlate () =
  let logs = raw_multi_request ~n:6 ~askew:2000 () in
  let cfg =
    Correlator.config ~transform:(Transform.config ~entry_points:[ entry ] ()) ()
  in
  let record_result = Correlator.correlate cfg logs in
  let native_result = Correlator.correlate_arena cfg (Trace.Arena.of_collection logs) in
  Alcotest.(check int) "same finished count"
    (List.length record_result.Correlator.cags)
    (List.length native_result.Correlator.cags);
  Alcotest.(check int) "same deformed count"
    (List.length record_result.Correlator.deformed)
    (List.length native_result.Correlator.deformed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same shape" (Core.Pattern.signature_of a)
        (Core.Pattern.signature_of b))
    record_result.Correlator.cags native_result.Correlator.cags

let () =
  Alcotest.run "correlator"
    [
      ( "transform",
        [
          Alcotest.test_case "BEGIN/END classification" `Quick test_transform_classifies;
          Alcotest.test_case "attribute filters" `Quick test_transform_filters;
          qtest (prop_apply_native_is_reference ("RUBiS paper noise", rubis_paper_noise));
          qtest (prop_apply_native_is_reference ("mesh control", mesh_control));
          Alcotest.test_case "online memo grows mid-feed" `Quick test_online_memo_grows;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "single request" `Quick test_pipeline_single_request;
          Alcotest.test_case "interleaved requests" `Quick test_pipeline_many_interleaved;
          Alcotest.test_case "skew with tiny window" `Quick test_pipeline_under_skew;
          Alcotest.test_case "name-filtered noise" `Quick test_pipeline_drop_filter;
          Alcotest.test_case "loss deforms but is detectable" `Quick test_pipeline_loss_detectable;
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_then_correlate;
          Alcotest.test_case "streaming callbacks" `Quick test_streaming_callback_order;
          Alcotest.test_case "multiple entry points" `Quick test_multiple_entry_points;
          Alcotest.test_case "memory proxy vs window" `Quick test_memory_proxy_grows_with_window;
          Alcotest.test_case "apply_native matches apply" `Quick test_apply_native_matches_apply;
          Alcotest.test_case "correlate_arena matches correlate" `Quick
            test_correlate_arena_matches_correlate;
          qtest prop_interleaved_requests_all_resolve;
        ] );
    ]
