(* Tests for the TCP_TRACE layer: activities, raw format, logs, probe,
   noise, loss, ground truth. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Raw_format = Trace.Raw_format
module Log = Trace.Log
module Probe = Trace.Probe
module Ground_truth = Trace.Ground_truth
module Loss = Trace.Loss
module Sim_time = Simnet.Sim_time
module Rng = Simnet.Rng

let qtest = QCheck_alcotest.to_alcotest

(* ---- Activity ---- *)

let test_kind_priority () =
  let open Activity in
  Alcotest.(check (list int)) "BEGIN<SEND<END<RECEIVE" [ 0; 1; 2; 3 ]
    (List.map kind_priority [ Begin; Send; End_; Receive ])

let test_kind_strings () =
  List.iter
    (fun k ->
      match Activity.kind_of_string (Activity.kind_to_string k) with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (Activity.equal_kind k k')
      | None -> Alcotest.fail "kind roundtrip")
    [ Activity.Begin; Activity.End_; Activity.Send; Activity.Receive ];
  Alcotest.(check bool) "unknown" true (Activity.kind_of_string "NOPE" = None)

let test_compare_by_time () =
  let a = H.act ~kind:Activity.Send ~ts:5 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1 in
  let b = H.act ~kind:Activity.Send ~ts:9 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1 in
  Alcotest.(check bool) "earlier first" true (Activity.compare_by_time a b < 0);
  let c = H.act ~kind:Activity.Begin ~ts:5 ~ctx:H.web_ctx ~flow:H.client_web_flow ~size:1 in
  Alcotest.(check bool) "tie broken by kind priority" true (Activity.compare_by_time c a < 0)

let test_context_equality () =
  let c1 = H.ctx ~host:"h" ~program:"p" ~pid:1 ~tid:2 () in
  let c2 = H.ctx ~host:"h" ~program:"p" ~pid:1 ~tid:2 () in
  let c3 = H.ctx ~host:"h" ~program:"p" ~pid:1 ~tid:3 () in
  Alcotest.(check bool) "equal" true (Activity.equal_context c1 c2);
  Alcotest.(check bool) "tid distinguishes" false (Activity.equal_context c1 c3);
  Alcotest.(check int) "hash consistent" (Activity.hash_context c1) (Activity.hash_context c2)

(* ---- Raw format ---- *)

let sample_activity =
  H.act ~kind:Activity.Send ~ts:123_456_789 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:552

let test_raw_line () =
  Alcotest.(check string) "format matches the paper's layout"
    "123456789 web httpd 10 10 SEND 10.0.1.1:41000-10.0.2.1:8009 552"
    (Raw_format.to_line sample_activity)

let test_raw_roundtrip () =
  match Raw_format.of_line (Raw_format.to_line sample_activity) with
  | Ok a -> Alcotest.(check bool) "equal" true (Activity.equal a sample_activity)
  | Error e -> Alcotest.fail e

let test_raw_errors () =
  let bad =
    [
      "";
      "only three fields here";
      "x web httpd 10 10 SEND 1.1.1.1:1-2.2.2.2:2 5";
      "1 web httpd 10 10 NOPE 1.1.1.1:1-2.2.2.2:2 5";
      "1 web httpd 10 10 SEND 1.1.1:1-2.2.2.2:2 5";
      "1 web httpd 10 10 SEND 1.1.1.1:x-2.2.2.2:2 5";
      "1 web httpd 10 10 SEND 1.1.1.1:1+2.2.2.2:2 5";
      "1 web httpd ten 10 SEND 1.1.1.1:1-2.2.2.2:2 5";
      "1 web httpd 10 10 SEND 1.1.1.1:1-2.2.2.2:2 five";
    ]
  in
  List.iter
    (fun line ->
      match Raw_format.of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    bad

(* OCaml's [int_of_string] admits radix prefixes and underscore
   separators; none of these are valid TCP_TRACE integer fields, and a
   lenient parser would silently misread e.g. a corrupted timestamp
   column. One regression test per non-canonical form, each exercised in
   an integer field of every position class (timestamp, pid/tid, port,
   message size) plus the dotted-quad octets. *)
let reject_line line =
  match Raw_format.of_line line with
  | Ok a -> Alcotest.failf "accepted %S as %s" line (Format.asprintf "%a" Activity.pp a)
  | Error _ -> ()

let lines_with n =
  [
    Printf.sprintf "%s web httpd 10 10 SEND 1.1.1.1:1-2.2.2.2:2 5" n;
    Printf.sprintf "1 web httpd %s 10 SEND 1.1.1.1:1-2.2.2.2:2 5" n;
    Printf.sprintf "1 web httpd 10 %s SEND 1.1.1.1:1-2.2.2.2:2 5" n;
    Printf.sprintf "1 web httpd 10 10 SEND 1.1.1.1:%s-2.2.2.2:2 5" n;
    Printf.sprintf "1 web httpd 10 10 SEND 1.1.1.1:1-2.2.2.2:%s 5" n;
    Printf.sprintf "1 web httpd 10 10 SEND 1.1.1.1:1-2.2.2.2:2 %s" n;
  ]

let test_raw_rejects_hex () = List.iter reject_line (lines_with "0x1f")
let test_raw_rejects_octal () = List.iter reject_line (lines_with "0o17")
let test_raw_rejects_binary_literal () = List.iter reject_line (lines_with "0b11")
let test_raw_rejects_underscores () = List.iter reject_line (lines_with "1_000")

let test_ip_rejects_noncanonical_octets () =
  List.iter
    (fun s ->
      match Simnet.Address.ip_of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "ip_of_string accepted %S" s)
    [ "0x1f.2.3.4"; "1.0o17.3.4"; "1.2.0b11.4"; "1.2.3.1_0"; "1.2.3.256"; "1.2.3.-1" ]

let test_raw_rejects_out_of_range_ports () =
  reject_line "1 web httpd 10 10 SEND 1.1.1.1:99999-2.2.2.2:2 5";
  reject_line "1 web httpd 10 10 SEND 1.1.1.1:1-2.2.2.2:65536 5";
  (match Raw_format.of_line "1 web httpd 10 10 SEND 1.1.1.1:99999-2.2.2.2:2 5" with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the sender port" msg)
        true
        (H.contains msg "sender port")
  | Ok _ -> Alcotest.fail "out-of-range port accepted");
  (* the boundary values are valid *)
  match Raw_format.of_line "1 web httpd 10 10 SEND 1.1.1.1:65535-2.2.2.2:0 5" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boundary ports rejected: %s" e

let arbitrary_activity =
  let open QCheck.Gen in
  let kind = oneofl [ Activity.Begin; Activity.End_; Activity.Send; Activity.Receive ] in
  let octet = int_range 0 255 in
  let gen =
    kind >>= fun kind ->
    int_range 0 1_000_000_000 >>= fun ts ->
    oneofl [ "web1"; "app1"; "db9" ] >>= fun host ->
    oneofl [ "httpd"; "java"; "mysqld"; "x" ] >>= fun program ->
    int_range 1 65_535 >>= fun pid ->
    int_range 1 65_535 >>= fun tid ->
    quad octet octet octet octet >>= fun (a, b, c, d) ->
    int_range 1 65_535 >>= fun sport ->
    int_range 1 65_535 >>= fun dport ->
    int_range 1 1_000_000 >>= fun size ->
    let flow =
      H.flow (Printf.sprintf "%d.%d.%d.%d" a b c d) sport
        (Printf.sprintf "%d.%d.%d.%d" d c b a) dport
    in
    return (H.act ~kind ~ts ~ctx:(H.ctx ~host ~program ~pid ~tid ()) ~flow ~size)
  in
  QCheck.make ~print:(Format.asprintf "%a" Activity.pp) gen

let prop_raw_roundtrip =
  QCheck.Test.make ~name:"raw format print/parse is the identity" ~count:500
    arbitrary_activity (fun a ->
      match Raw_format.of_line (Raw_format.to_line a) with
      | Ok a' -> Activity.equal a a'
      | Error _ -> false)

(* ---- Log ---- *)

let test_log_append_order () =
  let log = Log.create ~hostname:"n" in
  Log.append log (H.act ~kind:Activity.Send ~ts:1 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1);
  Log.append log (H.act ~kind:Activity.Send ~ts:1 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:2);
  Log.append log (H.act ~kind:Activity.Send ~ts:5 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:3);
  Alcotest.(check int) "length" 3 (Log.length log);
  match
    Log.append log (H.act ~kind:Activity.Send ~ts:2 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:4)
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "regression accepted"

let test_log_of_list_sorts () =
  let acts =
    [
      H.act ~kind:Activity.Send ~ts:9 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1;
      H.act ~kind:Activity.Send ~ts:3 ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:2;
    ]
  in
  let log = Log.of_list ~hostname:"n" acts in
  let ts = List.map (fun a -> Sim_time.to_ns a.Activity.timestamp) (Log.to_list log) in
  Alcotest.(check (list int)) "sorted" [ 3; 9 ] ts

let test_log_save_load () =
  let dir = Filename.temp_file "pt" "" in
  Sys.remove dir;
  let collection = H.logs_of_request () in
  Log.save collection ~dir;
  (match Log.load ~dir with
  | Ok loaded ->
      Alcotest.(check int) "same node count" (List.length collection) (List.length loaded);
      Alcotest.(check int) "same total" (Log.total collection) (Log.total loaded);
      let by_host = List.sort (fun a b -> String.compare (Log.hostname a) (Log.hostname b)) in
      let collection = by_host collection and loaded = by_host loaded in
      List.iter2
        (fun a b ->
          Alcotest.(check string) "hostname" (Log.hostname a) (Log.hostname b);
          List.iter2
            (fun x y -> Alcotest.(check bool) "activity" true (Activity.equal x y))
            (Log.to_list a) (Log.to_list b))
        collection loaded
  | Error e -> Alcotest.fail e);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_map_activities () =
  let collection = H.logs_of_request () in
  let only_sends =
    Log.map_activities
      (fun a -> if Activity.equal_kind a.Activity.kind Activity.Send then Some a else None)
      collection
  in
  Alcotest.(check int) "four sends" 4 (Log.total only_sends)

(* ---- Probe ---- *)

let traced_run ?only ?(enable = true) () =
  let engine = Simnet.Engine.create () in
  let stack = Simnet.Tcp.create_stack ~engine in
  let node name ip skew =
    Simnet.Node.create ~engine ~hostname:name ~ip:(Simnet.Address.ip_of_string ip) ~cores:1
      ~clock:(Simnet.Clock.create ~skew ())
      ()
  in
  let a = node "alpha" "10.0.0.1" (Sim_time.ms 7) in
  let b = node "beta" "10.0.0.2" Sim_time.span_zero in
  let probe = Probe.attach ~stack ?only () in
  if enable then Probe.enable probe;
  let server = Simnet.Node.spawn b ~program:"server" in
  Simnet.Tcp.listen stack b ~port:9000 ~accept:(fun sock ->
      Simnet.Tcp.recv stack sock ~proc:server ~max:4096 ~k:(fun _ -> ()));
  let client = Simnet.Node.spawn a ~program:"client" in
  Simnet.Tcp.connect stack ~node:a ~proc:client
    ~dst:(Simnet.Address.endpoint (Simnet.Node.ip b) 9000)
    ~k:(fun sock -> Simnet.Tcp.send stack sock ~proc:client ~size:77 ~k:(fun () -> ()));
  Simnet.Engine.run engine;
  probe

let test_probe_records () =
  let probe = traced_run () in
  Alcotest.(check int) "two activities" 2 (Probe.activity_count probe);
  let logs = Probe.logs probe in
  Alcotest.(check (list string)) "hosts" [ "alpha"; "beta" ] (List.map Log.hostname logs);
  let alpha = List.hd logs in
  match Log.to_list alpha with
  | [ a ] ->
      Alcotest.(check bool) "send kind" true (Activity.equal_kind a.Activity.kind Activity.Send);
      Alcotest.(check bool) "timestamp reflects 7ms skew" true
        (Sim_time.to_ns a.Activity.timestamp >= 7_000_000)
  | _ -> Alcotest.fail "expected one activity on alpha"

let test_probe_disabled () =
  let probe = traced_run ~enable:false () in
  Alcotest.(check int) "nothing logged" 0 (Probe.activity_count probe)

let test_probe_only_filter () =
  let probe = traced_run ~only:[ "beta" ] () in
  let logs = Probe.logs probe in
  Alcotest.(check (list string)) "only beta" [ "beta" ] (List.map Log.hostname logs);
  Alcotest.(check int) "one activity" 1 (Probe.activity_count probe)

(* ---- Loss ---- *)

let test_loss_none_and_all () =
  let collection = H.logs_of_request () in
  let rng = Rng.create ~seed:1 in
  Alcotest.(check int) "p=0 drops nothing" (Log.total collection)
    (Log.total (Loss.drop ~rng ~p:0.0 collection));
  Alcotest.(check int) "p=1 drops all" 0 (Log.total (Loss.drop ~rng ~p:1.0 collection))

let test_loss_kind () =
  let collection = H.logs_of_request () in
  let rng = Rng.create ~seed:1 in
  let dropped = Loss.drop_kind ~rng ~p:1.0 ~kind:Activity.Receive collection in
  let kinds = List.concat_map Log.to_list dropped |> List.map (fun a -> a.Activity.kind) in
  Alcotest.(check bool) "no receives left" true
    (not (List.exists (Activity.equal_kind Activity.Receive) kinds));
  Alcotest.(check int) "others kept" 6 (List.length kinds)

let activities_of collection = List.concat_map Log.to_list collection

let test_loss_kind_preserves_others () =
  let collection = H.logs_of_request () in
  let count_kind k coll =
    activities_of coll
    |> List.filter (fun a -> Activity.equal_kind a.Activity.kind k)
    |> List.length
  in
  let before k = count_kind k collection in
  let rng = Rng.create ~seed:5 in
  let dropped = Loss.drop_kind ~rng ~p:1.0 ~kind:Activity.Send collection in
  Alcotest.(check int) "sends gone" 0 (count_kind Activity.Send dropped);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "%s untouched" (Activity.kind_to_string k))
        (before k) (count_kind k dropped))
    [ Activity.Begin; Activity.End_; Activity.Receive ]

let test_loss_deterministic () =
  let spec =
    { Tiersim.Scenario.default with Tiersim.Scenario.clients = 5; time_scale = 0.02 }
  in
  let collection = (Tiersim.Scenario.run spec).Tiersim.Scenario.logs in
  let survivors drop =
    let rng = Rng.create ~seed:77 in
    activities_of (drop ~rng collection)
  in
  let same a b = List.length a = List.length b && List.for_all2 Activity.equal a b in
  Alcotest.(check bool) "drop: same seed, same survivors" true
    (same (survivors (Loss.drop ~p:0.3)) (survivors (Loss.drop ~p:0.3)));
  Alcotest.(check bool) "drop_kind: same seed, same survivors" true
    (same
       (survivors (Loss.drop_kind ~p:0.5 ~kind:Activity.Receive))
       (survivors (Loss.drop_kind ~p:0.5 ~kind:Activity.Receive)))

let prop_loss_rate =
  QCheck.Test.make ~name:"loss rate roughly honoured" ~count:20
    QCheck.(int_range 0 100)
    (fun pct ->
      let p = float_of_int pct /. 100.0 in
      let acts =
        List.init 2000 (fun i ->
            H.act ~kind:Activity.Send ~ts:i ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:1)
      in
      let collection = [ Log.of_list ~hostname:"n" acts ] in
      let rng = Rng.create ~seed:(pct + 1) in
      let kept = Log.total (Loss.drop ~rng ~p collection) in
      let expected = 2000.0 *. (1.0 -. p) in
      abs_float (float_of_int kept -. expected) < 120.0)

(* ---- Binary format ---- *)

(* The codec over record lists, converting at the edges. *)
let encode collection = Trace.Binary_format.encode_native (Trace.Arena.of_collection collection)
let decode data = Result.map Trace.Arena.to_collection (Trace.Binary_format.decode_native data)
let save collection ~path = Trace.Binary_format.save (Trace.Arena.of_collection collection) ~path

let text_size collection =
  List.fold_left
    (fun acc log ->
      List.fold_left
        (fun acc a -> acc + String.length (Raw_format.to_line a) + 1)
        acc (Log.to_list log))
    0 collection

let test_binary_roundtrip () =
  let outcome =
    Tiersim.Scenario.run
      { Tiersim.Scenario.default with Tiersim.Scenario.clients = 10; time_scale = 0.02 }
  in
  let collection = outcome.Tiersim.Scenario.logs in
  match decode (encode collection) with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check int) "log count" (List.length collection) (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "hostname" (Log.hostname a) (Log.hostname b);
          Alcotest.(check int) "length" (Log.length a) (Log.length b);
          List.iter2
            (fun x y -> Alcotest.(check bool) "activity" true (Activity.equal x y))
            (Log.to_list a) (Log.to_list b))
        collection loaded

let test_binary_smaller_than_text () =
  let outcome =
    Tiersim.Scenario.run
      { Tiersim.Scenario.default with Tiersim.Scenario.clients = 30; time_scale = 0.02 }
  in
  let collection = outcome.Tiersim.Scenario.logs in
  let binary = String.length (encode collection) in
  let text = text_size collection in
  Alcotest.(check bool)
    (Printf.sprintf "binary %d < text %d / 3" binary text)
    true
    (binary * 3 < text)

let test_binary_rejects_corruption () =
  let collection = H.logs_of_request () in
  let encoded = encode collection in
  (match decode "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match decode (String.sub encoded 0 (String.length encoded / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation accepted");
  (match decode (encoded ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match decode encoded with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_binary_file_io () =
  let collection = H.logs_of_request () in
  let path = Filename.temp_file "pt" ".ptb" in
  save collection ~path;
  (match Trace.Binary_format.load ~path with
  | Ok loaded -> Alcotest.(check int) "total" (Log.total collection) (Trace.Arena.total loaded)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip on arbitrary activities" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 30) arbitrary_activity)
    (fun acts ->
      let collection = [ Log.of_list ~hostname:"n1" acts ] in
      match decode (encode collection) with
      | Ok [ loaded ] ->
          List.for_all2 Activity.equal (Log.to_list (List.hd collection)) (Log.to_list loaded)
      | Ok _ | Error _ -> false)

(* A multi-host collection generator for the format property tests: the
   single-log shape above misses the cross-log string/context/flow table
   sharing, which is where interning bugs would live. *)
let arbitrary_collection =
  let open QCheck.Gen in
  let gen =
    int_range 0 3 >>= fun hosts ->
    let host_gen i =
      list_size (int_range 0 25) (QCheck.gen arbitrary_activity) >>= fun acts ->
      return (Log.of_list ~hostname:(Printf.sprintf "node%d" i) acts)
    in
    let rec build i acc =
      if i >= hosts then return (List.rev acc)
      else host_gen i >>= fun log -> build (i + 1) (log :: acc)
    in
    build 0 []
  in
  QCheck.make
    ~print:(fun c ->
      String.concat ";"
        (List.map (fun l -> Printf.sprintf "%s:%d" (Log.hostname l) (Log.length l)) c))
    gen

let collection_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         String.equal (Log.hostname x) (Log.hostname y)
         && Log.length x = Log.length y
         && List.for_all2 Activity.equal (Log.to_list x) (Log.to_list y))
       a b

let prop_binary_collection_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip on randomized collections" ~count:100
    arbitrary_collection (fun collection ->
      match decode (encode collection) with
      | Ok loaded -> collection_equal collection loaded
      | Error _ -> false)

let corpus_encoding () =
  encode (H.logs_of_request ())

let test_binary_truncation_corpus () =
  let encoded = corpus_encoding () in
  let n = String.length encoded in
  for len = 4 to n - 1 do
    match decode (String.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "prefix of %d/%d bytes decoded" len n
    | Error msg ->
        if not (H.contains msg "offset") then
          Alcotest.failf "truncation at %d: error %S names no offset" len msg
    | exception e ->
        Alcotest.failf "truncation at %d raised %s" len (Printexc.to_string e)
  done

let test_binary_byte_flip_corpus () =
  let encoded = corpus_encoding () in
  let n = String.length encoded in
  List.iter
    (fun mask ->
      for i = 0 to n - 1 do
        let b = Bytes.of_string encoded in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        match decode (Bytes.to_string b) with
        | Ok _ -> ()  (* flips in sizes/ports can still decode; that's fine *)
        | Error msg ->
            (* Magic damage is reported as a non-PTB1 file; everything past
               the magic must name the failing offset. *)
            if i >= 4 && not (H.contains msg "offset") then
              Alcotest.failf "flip %#x at %d: error %S names no offset" mask i msg
        | exception e ->
            Alcotest.failf "flip %#x at %d raised %s" mask i (Printexc.to_string e)
      done)
    [ 0x01; 0x80; 0xFF ]

let test_binary_truncated_file_load () =
  let collection = H.logs_of_request () in
  let path = Filename.temp_file "pt" ".ptb" in
  save collection ~path;
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 7)));
  (match Trace.Binary_format.load ~path with
  | Ok _ -> Alcotest.fail "truncated file loaded"
  | Error msg ->
      Alcotest.(check bool) "error names an offset" true (H.contains msg "offset"));
  Sys.remove path

(* ---- Native (arena) codec path ---- *)

module Arena = Trace.Arena

let test_w_uvarint_negative () =
  let module B = Trace.Binary_format in
  let w = B.w_create 8 in
  (match B.w_uvarint w (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative varint accepted");
  (match B.w_uvarint w min_int with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "min_int varint accepted");
  B.w_uvarint w 0;
  B.w_uvarint w max_int;
  Alcotest.(check bool) "valid values still encode" true (B.w_length w > 0)

let arena_rows a =
  List.init (Arena.length a) (fun i ->
      (Arena.kind_code a i, Arena.ts a i, Arena.ctx_id a i, Arena.flow_id a i, Arena.size a i))

let arenas_equal xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun x y -> String.equal (Arena.hostname x) (Arena.hostname y) && arena_rows x = arena_rows y)
       xs ys

let prop_native_roundtrip =
  QCheck.Test.make ~name:"native decode(encode) is structurally the identity" ~count:100
    arbitrary_collection (fun collection ->
      let arenas = Arena.of_collection collection in
      match Trace.Binary_format.decode_native (Trace.Binary_format.encode_native arenas) with
      | Ok loaded -> arenas_equal arenas loaded
      | Error _ -> false)

(* The record-list PTB1 encoder the arena codec replaced, kept as the
   reference its bytes must match: per-message string, context and flow
   tables keyed by the records' fields, interned in traversal order. It
   carries its own LEB128 writer, so it shares no varint code with the
   encoder it checks. *)
let reference_encode collection =
  let buf = Buffer.create 4096 in
  let rec put n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      put (n lsr 7)
    end
  in
  let put_signed n = put ((n lsl 1) lxor (n asr 62)) in
  Buffer.add_string buf Trace.Binary_format.magic;
  let table (type k) (module T : Hashtbl.S with type key = k) =
    let tbl = T.create 16 and order = ref [] in
    let index key =
      match T.find_opt tbl key with
      | Some i -> i
      | None ->
          let i = T.length tbl in
          T.replace tbl key i;
          order := key :: !order;
          i
    in
    (index, fun () -> List.rev !order)
  in
  let string_index, strings = table (module Hashtbl.Make (String)) in
  let context_index, contexts =
    table
      (module Hashtbl.Make (struct
        type t = Activity.context

        let equal = ( = )
        let hash = Hashtbl.hash
      end))
  in
  let flow_index, flows = table (module Simnet.Address.Flow_table) in
  let context_of (c : Activity.context) =
    ignore (string_index c.host);
    ignore (string_index c.program);
    context_index c
  in
  List.iter
    (fun log ->
      ignore (string_index (Log.hostname log));
      List.iter
        (fun (a : Activity.t) ->
          ignore (context_of a.context);
          ignore (flow_index a.message.flow))
        (Log.to_list log))
    collection;
  put (List.length (strings ()));
  List.iter
    (fun s ->
      put (String.length s);
      Buffer.add_string buf s)
    (strings ());
  put (List.length (contexts ()));
  List.iter
    (fun (c : Activity.context) ->
      put (string_index c.host);
      put (string_index c.program);
      put c.pid;
      put c.tid)
    (contexts ());
  put (List.length (flows ()));
  List.iter
    (fun (f : Simnet.Address.flow) ->
      put (Simnet.Address.ip_to_int f.src.ip);
      put f.src.port;
      put (Simnet.Address.ip_to_int f.dst.ip);
      put f.dst.port)
    (flows ());
  put (List.length collection);
  List.iter
    (fun log ->
      put (string_index (Log.hostname log));
      put (Log.length log);
      let prev_ts = ref 0 in
      List.iter
        (fun (a : Activity.t) ->
          put (Activity.kind_to_code a.kind);
          let ts = Simnet.Sim_time.to_ns a.timestamp in
          put_signed (ts - !prev_ts);
          prev_ts := ts;
          put (context_index a.context);
          put (flow_index a.message.flow);
          put a.message.size)
        (Log.to_list log))
    collection;
  Buffer.contents buf

let prop_native_bytes_match_legacy =
  QCheck.Test.make ~name:"encode_native bytes equal record-list encode bytes" ~count:100
    arbitrary_collection (fun collection ->
      String.equal (reference_encode collection)
        (Trace.Binary_format.encode_native (Arena.of_collection collection)))

(* Logs whose records tie often: timestamps from a tiny range, contexts
   and kinds from tiny pools, and context hosts drawn independently of
   the log they sit in, so rows tie on (timestamp, context, kind) within
   a host and across hosts, and tie on timestamp alone with a different
   context or kind. Flows and sizes tell tied rows apart. *)
let tied_collection =
  let open QCheck.Gen in
  let activity =
    map
      (fun ((ts, host), (pid, kind), (port, size)) ->
        H.act ~kind ~ts ~ctx:(H.ctx ~host ~pid ()) ~flow:(H.flow "10.0.0.1" port "10.0.0.2" 80)
          ~size)
      (triple
         (pair (int_range 0 3) (oneofl [ "h0"; "h1" ]))
         (pair (int_range 1 2) (oneofl Activity.[ Begin; Send; End_; Receive ]))
         (pair (int_range 1 4) (int_range 1 3)))
  in
  let log i =
    map (Log.of_list ~hostname:(Printf.sprintf "h%d" i)) (list_size (int_range 0 10) activity)
  in
  int_range 1 4 >>= fun hosts -> flatten_l (List.init hosts log)

let prop_merge_is_stable_time_sort =
  QCheck.Test.make ~name:"iter_merged = stable time sort of the concatenation" ~count:300
    (QCheck.make
       ~print:(fun c ->
         String.concat " | "
           (List.map
              (fun l ->
                Log.hostname l ^ ": "
                ^ String.concat "; " (List.map (Format.asprintf "%a" Activity.pp) (Log.to_list l)))
              c))
       tied_collection)
    (fun collection ->
      let arenas = Array.of_list (Arena.of_collection collection) in
      let expected =
        List.stable_sort Activity.compare_by_time (List.concat_map Log.to_list collection)
      in
      let visited = ref [] in
      Arena.iter_merged arenas (fun h i -> visited := Arena.get arenas.(h) i :: !visited);
      (* merge_runs: non-empty runs, contiguous from row 0 in each arena,
         covering every row, concatenating to the same order *)
      let next = Array.make (Array.length arenas) 0 and contiguous = ref true in
      let runs = ref [] in
      Arena.merge_runs arenas (fun h lo hi ->
          if lo >= hi || lo <> next.(h) then contiguous := false;
          next.(h) <- hi;
          for i = lo to hi - 1 do
            runs := Arena.get arenas.(h) i :: !runs
          done);
      List.equal Activity.equal expected (List.rev !visited)
      && !contiguous
      && Array.for_all2 (fun n a -> n = Arena.length a) next arenas
      && List.equal Activity.equal expected (List.rev !runs))

let prop_text_native_text_stable =
  (* Text import -> native codec roundtrip -> text export must be
     byte-stable: the arena path may not perturb a single rendered
     field. *)
  QCheck.Test.make ~name:"text import -> native -> text export is byte-stable" ~count:100
    arbitrary_collection (fun collection ->
      let text_of c =
        String.concat "\n"
          (List.concat_map (fun l -> List.map Raw_format.to_line (Log.to_list l)) c)
      in
      let imported =
        List.map
          (fun l ->
            let acts =
              List.map
                (fun a ->
                  match Raw_format.of_line (Raw_format.to_line a) with
                  | Ok a -> a
                  | Error e -> failwith e)
                (Log.to_list l)
            in
            Log.of_list ~hostname:(Log.hostname l) acts)
          collection
      in
      let arenas = Arena.of_collection imported in
      match Trace.Binary_format.decode_native (Trace.Binary_format.encode_native arenas) with
      | Error _ -> false
      | Ok loaded -> String.equal (text_of collection) (text_of (Arena.to_collection loaded)))

(* Native corruption corpora: same never-raise guarantee as the
   record-list decoder, with every reported offset in bounds. *)
let error_offset_in_bounds n msg =
  (* errors read "... offset %d..." — extract the integer after the
     first "offset " occurrence *)
  let marker = "offset " in
  let rec find i =
    if i + String.length marker > String.length msg then None
    else if String.sub msg i (String.length marker) = marker then Some (i + String.length marker)
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some start ->
      let stop = ref start in
      while !stop < String.length msg && msg.[!stop] >= '0' && msg.[!stop] <= '9' do
        incr stop
      done;
      !stop > start
      &&
      let off = int_of_string (String.sub msg start (!stop - start)) in
      off >= 0 && off <= n

let test_native_truncation_corpus () =
  let encoded = corpus_encoding () in
  let n = String.length encoded in
  for len = 4 to n - 1 do
    match Trace.Binary_format.decode_native (String.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "native: prefix of %d/%d bytes decoded" len n
    | Error msg ->
        if not (error_offset_in_bounds len msg) then
          Alcotest.failf "native truncation at %d: error %S has no in-bounds offset" len msg
    | exception e ->
        Alcotest.failf "native truncation at %d raised %s" len (Printexc.to_string e)
  done

let test_native_byte_flip_corpus () =
  let encoded = corpus_encoding () in
  let n = String.length encoded in
  List.iter
    (fun mask ->
      for i = 0 to n - 1 do
        let b = Bytes.of_string encoded in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        match Trace.Binary_format.decode_native (Bytes.to_string b) with
        | Ok _ -> () (* flips in sizes/ports can still decode; that's fine *)
        | Error msg ->
            if i >= 4 && not (error_offset_in_bounds n msg) then
              Alcotest.failf "native flip %#x at %d: error %S has no in-bounds offset" mask i msg
        | exception e ->
            Alcotest.failf "native flip %#x at %d raised %s" mask i (Printexc.to_string e)
      done)
    [ 0x01; 0x80; 0xFF ]

(* ---- Ground truth ---- *)

let test_gt_lifecycle () =
  let gt = Ground_truth.create () in
  Ground_truth.begin_visit gt ~id:1 ~kind:"ViewItem" ~context:H.web_ctx
    ~ts:(Sim_time.of_ns 10);
  Ground_truth.begin_visit gt ~id:1 ~kind:"ViewItem" ~context:H.app_ctx
    ~ts:(Sim_time.of_ns 20);
  Ground_truth.end_visit gt ~id:1 ~context:H.app_ctx ~ts:(Sim_time.of_ns 30);
  Ground_truth.end_visit gt ~id:1 ~context:H.web_ctx ~ts:(Sim_time.of_ns 40);
  Alcotest.(check int) "not completed yet" 0 (Ground_truth.count gt);
  Ground_truth.complete gt ~id:1;
  Alcotest.(check int) "completed" 1 (Ground_truth.count gt);
  match Ground_truth.requests gt with
  | [ r ] ->
      Alcotest.(check int) "id" 1 r.Ground_truth.id;
      Alcotest.(check string) "kind" "ViewItem" r.kind;
      Alcotest.(check int) "two visits" 2 (List.length r.visits);
      let first = List.hd r.visits in
      Alcotest.(check bool) "first visit is web" true
        (Activity.equal_context first.Ground_truth.context H.web_ctx);
      Alcotest.(check int) "interval end" 40 (Sim_time.to_ns first.end_ts)
  | _ -> Alcotest.fail "one request expected"

let test_gt_repeat_visits () =
  let gt = Ground_truth.create () in
  Ground_truth.begin_visit gt ~id:2 ~kind:"X" ~context:H.db_ctx ~ts:(Sim_time.of_ns 100);
  Ground_truth.end_visit gt ~id:2 ~context:H.db_ctx ~ts:(Sim_time.of_ns 150);
  (* A second query on the same context extends the interval but keeps the
     earliest begin. *)
  Ground_truth.begin_visit gt ~id:2 ~kind:"X" ~context:H.db_ctx ~ts:(Sim_time.of_ns 200);
  Ground_truth.end_visit gt ~id:2 ~context:H.db_ctx ~ts:(Sim_time.of_ns 250);
  Ground_truth.complete gt ~id:2;
  match Ground_truth.requests gt with
  | [ { Ground_truth.visits = [ v ]; _ } ] ->
      Alcotest.(check int) "begin kept" 100 (Sim_time.to_ns v.Ground_truth.begin_ts);
      Alcotest.(check int) "end extended" 250 (Sim_time.to_ns v.end_ts)
  | _ -> Alcotest.fail "one merged visit expected"

let test_gt_errors () =
  let gt = Ground_truth.create () in
  (match Ground_truth.end_visit gt ~id:9 ~context:H.web_ctx ~ts:Sim_time.zero with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown request accepted");
  match Ground_truth.complete gt ~id:9 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown completion accepted"

let () =
  Alcotest.run "trace"
    [
      ( "activity",
        [
          Alcotest.test_case "kind priority" `Quick test_kind_priority;
          Alcotest.test_case "kind strings" `Quick test_kind_strings;
          Alcotest.test_case "compare_by_time" `Quick test_compare_by_time;
          Alcotest.test_case "context equality" `Quick test_context_equality;
        ] );
      ( "raw_format",
        [
          Alcotest.test_case "line layout" `Quick test_raw_line;
          Alcotest.test_case "roundtrip" `Quick test_raw_roundtrip;
          Alcotest.test_case "malformed lines rejected" `Quick test_raw_errors;
          Alcotest.test_case "hex literals rejected" `Quick test_raw_rejects_hex;
          Alcotest.test_case "octal literals rejected" `Quick test_raw_rejects_octal;
          Alcotest.test_case "binary literals rejected" `Quick test_raw_rejects_binary_literal;
          Alcotest.test_case "underscored literals rejected" `Quick test_raw_rejects_underscores;
          Alcotest.test_case "ip octet forms rejected" `Quick test_ip_rejects_noncanonical_octets;
          Alcotest.test_case "port range enforced" `Quick test_raw_rejects_out_of_range_ports;
          qtest prop_raw_roundtrip;
        ] );
      ( "log",
        [
          Alcotest.test_case "append enforces order" `Quick test_log_append_order;
          Alcotest.test_case "of_list sorts" `Quick test_log_of_list_sorts;
          Alcotest.test_case "save/load roundtrip" `Quick test_log_save_load;
          Alcotest.test_case "map_activities" `Quick test_map_activities;
        ] );
      ( "probe",
        [
          Alcotest.test_case "records with local clocks" `Quick test_probe_records;
          Alcotest.test_case "disabled logs nothing" `Quick test_probe_disabled;
          Alcotest.test_case "host filter" `Quick test_probe_only_filter;
        ] );
      ( "loss",
        [
          Alcotest.test_case "p=0 and p=1" `Quick test_loss_none_and_all;
          Alcotest.test_case "kind-selective" `Quick test_loss_kind;
          Alcotest.test_case "other kinds untouched" `Quick test_loss_kind_preserves_others;
          Alcotest.test_case "seed-deterministic" `Quick test_loss_deterministic;
          qtest prop_loss_rate;
        ] );
      ( "binary_format",
        [
          Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "compression vs text" `Quick test_binary_smaller_than_text;
          Alcotest.test_case "corruption rejected" `Quick test_binary_rejects_corruption;
          Alcotest.test_case "file io" `Quick test_binary_file_io;
          Alcotest.test_case "truncation corpus" `Quick test_binary_truncation_corpus;
          Alcotest.test_case "byte-flip corpus" `Quick test_binary_byte_flip_corpus;
          Alcotest.test_case "truncated file load" `Quick test_binary_truncated_file_load;
          qtest prop_binary_roundtrip;
          qtest prop_binary_collection_roundtrip;
        ] );
      ( "native_format",
        [
          Alcotest.test_case "w_uvarint rejects negatives" `Quick test_w_uvarint_negative;
          Alcotest.test_case "truncation corpus (native)" `Quick test_native_truncation_corpus;
          Alcotest.test_case "byte-flip corpus (native)" `Quick test_native_byte_flip_corpus;
          qtest prop_native_roundtrip;
          qtest prop_native_bytes_match_legacy;
          qtest prop_text_native_text_stable;
          qtest prop_merge_is_stable_time_sort;
        ] );
      ( "ground_truth",
        [
          Alcotest.test_case "lifecycle" `Quick test_gt_lifecycle;
          Alcotest.test_case "repeat visits merge" `Quick test_gt_repeat_visits;
          Alcotest.test_case "errors" `Quick test_gt_errors;
        ] );
    ]
