(* Tests for the in-band collection plane: the PTC1 frame codec and its
   incremental decoder (arbitrary TCP segmentation, truncation,
   corruption), the byte side channel, and agent/collector micro
   simulations — delivery, acks, crash/restart resend, backpressure
   eviction — all checked against the agent's accounting identity
   observed = reduced + dropped + acked + spooled + queued. *)

module H = Test_helpers.Helpers
module Activity = Trace.Activity
module Log = Trace.Log
module Frame = Collect.Frame
module Wire = Collect.Wire
module Agent = Collect.Agent
module Collector = Collect.Collector
module Engine = Simnet.Engine
module Node = Simnet.Node
module Tcp = Simnet.Tcp
module Address = Simnet.Address
module ST = Simnet.Sim_time
module R = Telemetry.Registry
module S = Tiersim.Scenario

let qtest = QCheck_alcotest.to_alcotest

(* ---- generators ---- *)

let arbitrary_activity =
  let open QCheck.Gen in
  let kind = oneofl [ Activity.Begin; Activity.End_; Activity.Send; Activity.Receive ] in
  let octet = int_range 0 255 in
  let gen =
    kind >>= fun kind ->
    int_range 0 1_000_000_000 >>= fun ts ->
    oneofl [ "web1"; "app1" ] >>= fun host ->
    oneofl [ "httpd"; "java"; "x" ] >>= fun program ->
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

(* A stream of frames with plausible headers (seq/oldest ascending per
   host). Only the codec is under test, so hosts may interleave. *)
let encode_payload ~host acts =
  Frame.encode_payload_arena (Trace.Arena.of_log (Log.of_list ~hostname:host acts))

let arbitrary_frame_stream =
  let open QCheck.Gen in
  let frame i =
    list_size (int_range 0 12) (QCheck.gen arbitrary_activity) >>= fun acts ->
    oneofl [ "web1"; "app1" ] >>= fun host ->
    int_range 0 3 >>= fun back ->
    int_range 0 1_000_000_000 >>= fun wm ->
    let acts = List.map (fun (a : Activity.t) -> { a with Activity.context = { a.Activity.context with Activity.host } }) acts in
    return
      (Frame.encode ~seq:i ~oldest:(max 0 (i - back)) ~host ~watermark:(ST.of_ns wm)
         ~payload:(encode_payload ~host acts))
  in
  let gen =
    int_range 1 6 >>= fun n ->
    let rec build i acc =
      if i >= n then return (List.rev acc)
      else frame i >>= fun f -> build (i + 1) (f :: acc)
    in
    build 0 []
  in
  QCheck.make ~print:(fun fs -> Printf.sprintf "%d frames" (List.length fs)) gen

(* Record-list edges onto the frame payload codec. *)
let activities (f : Frame.t) = List.init (Frame.records f) (Trace.Arena.get f.Frame.arena)

let sink_rows sink arena =
  for i = 0 to Trace.Arena.length arena - 1 do
    sink := Trace.Arena.get arena i :: !sink
  done

let decode_all bytes_chunks =
  let dec = Frame.Decoder.create () in
  List.iter (Frame.Decoder.feed dec) bytes_chunks;
  Frame.Decoder.drain dec

let frame_equal (a : Frame.t) (b : Frame.t) =
  a.Frame.seq = b.Frame.seq && a.Frame.oldest = b.Frame.oldest
  && String.equal a.Frame.host b.Frame.host
  && ST.equal a.Frame.watermark b.Frame.watermark
  && Frame.records a = Frame.records b
  && List.for_all2 Activity.equal (activities a) (activities b)

(* ---- codec round trip ---- *)

let test_frame_roundtrip () =
  let acts = List.concat_map Log.to_list (H.logs_of_request ()) in
  let web = List.filter (fun (a : Activity.t) -> a.Activity.context.host = "web") acts in
  let payload = encode_payload ~host:"web" web in
  let bytes = Frame.encode ~seq:7 ~oldest:3 ~host:"web" ~watermark:(ST.of_ns 123_456) ~payload in
  match decode_all [ bytes ] with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok [ f ] ->
      Alcotest.(check int) "seq" 7 f.Frame.seq;
      Alcotest.(check int) "oldest" 3 f.Frame.oldest;
      Alcotest.(check string) "host" "web" f.Frame.host;
      Alcotest.(check int) "watermark" 123_456 (ST.to_ns f.Frame.watermark);
      Alcotest.(check int) "records" (List.length web) (Frame.records f);
      let sorted = Log.to_list (Log.of_list ~hostname:"web" web) in
      Alcotest.(check bool) "activities" true
        (List.for_all2 Activity.equal sorted (activities f))
  | Ok fs -> Alcotest.failf "expected 1 frame, got %d" (List.length fs)

let test_empty_frame_roundtrip () =
  let bytes =
    Frame.encode ~seq:0 ~oldest:0 ~host:"db1" ~watermark:(ST.of_ns 5)
      ~payload:(encode_payload ~host:"db1" [])
  in
  match decode_all [ bytes ] with
  | Ok [ f ] ->
      Alcotest.(check int) "no records" 0 (Frame.records f);
      Alcotest.(check string) "host" "db1" f.Frame.host
  | Ok _ | Error _ -> Alcotest.fail "empty frame must decode"

let test_frame_is_header_plus_payload () =
  let acts = List.concat_map Log.to_list (H.logs_of_request ()) in
  let payload =
    encode_payload ~host:"app"
      (List.filter (fun (a : Activity.t) -> a.Activity.context.host = "app") acts)
  in
  let header =
    (* a test-local LEB128 writer: the expected bytes share no code with
       the encoder under test *)
    let b = Buffer.create 32 in
    let rec put n =
      if n < 0x80 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        put (n lsr 7)
      end
    in
    Buffer.add_string b Frame.magic;
    List.iter put [ 4; 2; String.length "app" ];
    Buffer.add_string b "app";
    (* the watermark is signed: zigzag maps w >= 0 to 2w *)
    List.iter put [ 2 * 987_654_321; String.length payload ];
    Buffer.contents b
  in
  let bytes =
    Frame.encode ~seq:4 ~oldest:2 ~host:"app" ~watermark:(ST.of_ns 987_654_321) ~payload
  in
  Alcotest.(check string) "frame = header ^ payload" (header ^ payload) bytes;
  (* a stray byte after the payload is the start of the next frame, not
     part of this one *)
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec (bytes ^ "\x07");
  (match Frame.Decoder.next dec with
  | Ok (Some f) -> Alcotest.(check int) "frame decodes" 4 f.Frame.seq
  | Ok None -> Alcotest.fail "complete frame reported incomplete"
  | Error e -> Alcotest.failf "frame rejected: %s" e);
  match Frame.Decoder.next dec with
  | Error e ->
      Alcotest.(check string) "stray byte is a bad magic at its offset"
        (Printf.sprintf "offset %d: bad magic (expected \"PTC1\")" (String.length bytes))
        e
  | Ok _ -> Alcotest.fail "stray trailing byte accepted"

(* ---- the QCheck chop property: segmentation cannot change the result ---- *)

let chop_at cuts s =
  (* cut points are sorted positions inside [s] *)
  let n = String.length s in
  let rec go start = function
    | [] -> if start < n then [ String.sub s start (n - start) ] else []
    | c :: rest ->
        if c <= start || c >= n then go start rest
        else String.sub s start (c - start) :: go c rest
  in
  go 0 (List.sort_uniq compare cuts)

let prop_chopped_stream_decodes_identically =
  QCheck.Test.make ~name:"PTC1 decode is invariant under arbitrary segmentation"
    ~count:200
    QCheck.(
      pair arbitrary_frame_stream (list_of_size (QCheck.Gen.int_range 0 40) small_nat))
    (fun (frames, cuts) ->
      let stream = String.concat "" frames in
      let cuts = List.map (fun c -> c mod max 1 (String.length stream)) cuts in
      match (decode_all [ stream ], decode_all (chop_at cuts stream)) with
      | Ok whole, Ok chopped ->
          List.length whole = List.length chopped
          && List.for_all2 frame_equal whole chopped
      | _ -> false)

let test_byte_by_byte_decode () =
  let acts = List.concat_map Log.to_list (H.logs_of_request ()) in
  let web = List.filter (fun (a : Activity.t) -> a.Activity.context.host = "web") acts in
  let frames =
    [
      Frame.encode ~seq:0 ~oldest:0 ~host:"web" ~watermark:(ST.of_ns 10)
        ~payload:(encode_payload ~host:"web" web);
      Frame.encode ~seq:1 ~oldest:1 ~host:"web" ~watermark:(ST.of_ns 20)
        ~payload:(encode_payload ~host:"web" []);
    ]
  in
  let stream = String.concat "" frames in
  let dec = Frame.Decoder.create () in
  let seen = ref 0 in
  String.iter
    (fun c ->
      Frame.Decoder.feed dec (String.make 1 c);
      match Frame.Decoder.drain dec with
      | Ok fs -> seen := !seen + List.length fs
      | Error e -> Alcotest.failf "byte-by-byte decode errored: %s" e)
    stream;
  Alcotest.(check int) "both frames decoded" 2 !seen;
  Alcotest.(check int) "nothing left buffered" 0 (Frame.Decoder.buffered dec)

(* ---- truncation: a prefix is never corruption, only "need more" ---- *)

let test_truncation_never_errors () =
  let acts = List.concat_map Log.to_list (H.logs_of_request ()) in
  let web = List.filter (fun (a : Activity.t) -> a.Activity.context.host = "web") acts in
  let f0 =
    Frame.encode ~seq:0 ~oldest:0 ~host:"web" ~watermark:(ST.of_ns 10)
      ~payload:(encode_payload ~host:"web" web)
  in
  let f1 =
    Frame.encode ~seq:1 ~oldest:0 ~host:"web" ~watermark:(ST.of_ns 20)
      ~payload:(encode_payload ~host:"web" web)
  in
  let stream = f0 ^ f1 in
  for len = 0 to String.length stream - 1 do
    match decode_all [ String.sub stream 0 len ] with
    | Error e -> Alcotest.failf "prefix of %d bytes errored: %s" len e
    | Ok fs ->
        let expect =
          if len >= String.length f0 then 1 else 0
        in
        if List.length fs <> expect then
          Alcotest.failf "prefix of %d bytes yielded %d frames (want %d)" len
            (List.length fs) expect
    | exception e ->
        Alcotest.failf "prefix of %d bytes raised %s" len (Printexc.to_string e)
  done

(* ---- byte flips: never an exception; errors name an offset ---- *)

let test_byte_flip_corpus () =
  let acts = List.concat_map Log.to_list (H.logs_of_request ()) in
  let web = List.filter (fun (a : Activity.t) -> a.Activity.context.host = "web") acts in
  let stream =
    Frame.encode ~seq:3 ~oldest:1 ~host:"web" ~watermark:(ST.of_ns 10)
      ~payload:(encode_payload ~host:"web" web)
  in
  for i = 0 to String.length stream - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string stream in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match decode_all [ Bytes.to_string b ] with
      | Ok _ -> () (* some flips only change header values: still a frame *)
      | Error msg ->
          if not (H.contains msg "offset") then
            Alcotest.failf "flip at %d/%d: error %S names no offset" i bit msg
      | exception e ->
          Alcotest.failf "flip at %d/%d raised %s" i bit (Printexc.to_string e)
    done
  done

let test_encode_rejects_negative_varints () =
  (* Frame's LEB128 writer raises [Invalid_argument] on negatives (it
     used to be an [assert], invisible in release builds). The watermark
     is signed: a clock running behind starts below zero. *)
  (match Frame.encode_ack (-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative ack accepted");
  match
    Frame.encode ~seq:(-1) ~oldest:0 ~host:"w" ~watermark:(ST.of_ns 0)
      ~payload:(encode_payload ~host:"w" [])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative seq accepted"

(* A host whose clock runs behind starts below zero. Its timestamps
   round-trip through every encoder: PTB1 rows, PTS1 segments, PTC1
   frames (watermark included) and PTP1 path tables. *)
let test_negative_timestamps_roundtrip () =
  let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e in
  let logs = H.logs_of_request ~base:(-50_000_000) () in
  let arenas = Trace.Arena.of_collection logs in
  let rows arenas =
    List.concat_map (fun a -> List.init (Trace.Arena.length a) (Trace.Arena.get a)) arenas
  in
  let same what decoded =
    Alcotest.(check bool) what true (List.equal Activity.equal (rows arenas) (rows decoded))
  in
  Alcotest.(check bool) "a first timestamp below zero" true
    (List.exists (fun a -> Trace.Arena.ts a 0 < 0) arenas);
  same "PTB1"
    (ok "PTB1" (Trace.Binary_format.decode_native (Trace.Binary_format.encode_native arenas)));
  let meta, data = Store.Segment.encode_native ~id:0 ~policy:"none" arenas in
  same "PTS1"
    (ok "PTS1"
       (Store.Segment.read_embedded_native ~data ~pos:0 ~len:(String.length data) ~what:"PTS1"
          meta));
  List.iter
    (fun a ->
      let host = Trace.Arena.hostname a and watermark = ST.of_ns (Trace.Arena.ts a 0) in
      match
        decode_all
          [ Frame.encode ~seq:0 ~oldest:0 ~host ~watermark ~payload:(Frame.encode_payload_arena a) ]
      with
      | Ok [ f ] ->
          Alcotest.(check int) "PTC1 watermark" (ST.to_ns watermark) (ST.to_ns f.Frame.watermark);
          Alcotest.(check bool) "PTC1 rows" true
            (List.equal Activity.equal (rows [ a ]) (rows [ f.Frame.arena ]))
      | Ok _ -> Alcotest.fail "PTC1: expected one frame"
      | Error e -> Alcotest.failf "PTC1: %s" e)
    arenas;
  let engine, _ = H.correlate_raw logs in
  let cags = Core.Cag_engine.finished engine in
  let bytes =
    (Bundle.Codec.encode ~link_hosts:[||] cags).Bundle.Codec.bytes
  in
  let decoded = ok "PTP1" (Bundle.Codec.decode bytes ~pos:0 ~len:(String.length bytes)) in
  let stamps cags =
    List.concat_map
      (fun c ->
        List.map
          (fun (v : Core.Cag.vertex) -> ST.to_ns v.Core.Cag.activity.Activity.timestamp)
          (Core.Cag.vertices c))
      cags
  in
  Alcotest.(check bool) "a path below zero" true (List.exists (fun t -> t < 0) (stamps cags));
  let decoded = List.map (fun (p : Bundle.Codec.path) -> p.Bundle.Codec.cag) decoded.paths in
  Alcotest.(check (list int)) "PTP1 timestamps" (stamps cags) (stamps decoded)

(* The in-band plane under 200 ms of skew: agents on a host whose clock
   runs behind ship watermarks below zero, and the online run still
   correlates every path the offline run does. *)
let test_deploy_under_skew () =
  let deploy = ref None in
  let outcome =
    S.run
      ~before_run:(fun svc ->
        deploy := Some (Collect.Deploy.install ~telemetry:(R.create ()) svc))
      ~after_run:(fun _ -> Collect.Deploy.finish (Option.get !deploy))
      { S.default with S.clients = 40; time_scale = 0.05; seed = 11; skew = ST.ms 200 }
  in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let offline = Core.Correlator.correlate_arena cfg (Trace.Arena.of_collection outcome.S.logs) in
  Alcotest.(check bool) "paths correlated" true (offline.Core.Correlator.cags <> []);
  Alcotest.(check int) "online paths = offline"
    (List.length offline.Core.Correlator.cags)
    (List.length (Core.Online.paths (Collect.Deploy.online (Option.get !deploy))))

let test_decoder_error_is_sticky () =
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec "XXXX";
  (match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must error");
  Frame.Decoder.feed dec
    (Frame.encode ~seq:0 ~oldest:0 ~host:"w" ~watermark:(ST.of_ns 1)
       ~payload:(encode_payload ~host:"w" []));
  match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a corrupt stream cannot resynchronise"

(* A nine-byte length varint can decode negative: that is corruption at
   the length field, not an exception out of [next]. *)
let test_negative_length_is_corruption () =
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec ("PTC1\x00\x00" ^ String.make 8 '\x80' ^ "\x40");
  match Frame.Decoder.next dec with
  | Error e -> Alcotest.(check bool) "names the length field" true (H.contains e "offset 6: host length")
  | Ok _ -> Alcotest.fail "negative host length accepted"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

(* ---- ack codec ---- *)

let prop_ack_stream_chop =
  QCheck.Test.make ~name:"PTA1 decode is invariant under segmentation" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 10) (int_bound 1_000_000))
        (list_of_size (QCheck.Gen.int_range 0 20) small_nat))
    (fun (seqs, cuts) ->
      let stream = String.concat "" (List.map Frame.encode_ack seqs) in
      let cuts = List.map (fun c -> c mod max 1 (String.length stream)) cuts in
      let dec = Frame.Ack_decoder.create () in
      List.iter (Frame.Ack_decoder.feed dec) (chop_at cuts stream);
      match Frame.Ack_decoder.drain dec with
      | Ok got -> got = seqs
      | Error _ -> false)

(* ---- micro simulation: agent -> collector over simulated TCP ---- *)

type micro = {
  engine : Engine.t;
  anode : Node.t;
  agent : Agent.t;
  collector : Collector.t;
  sink : Activity.t list ref;  (* delivered, newest first *)
}

let make_micro ?(config = Agent.default_config) ?(collector_cpu_per_frame = ST.us 50) () =
  let engine = Engine.create () in
  let stack = Tcp.create_stack ~engine in
  let wire = Wire.create stack in
  let anode =
    Node.create ~engine ~hostname:"web1" ~ip:(Address.ip_of_string "10.0.0.1") ~cores:2 ()
  in
  let cnode =
    Node.create ~engine ~hostname:"collect1" ~ip:(Address.ip_of_string "10.0.0.9") ~cores:2
      ()
  in
  let sink = ref [] in
  let reg = R.create () in
  let collector =
    Collector.create ~telemetry:reg ~cpu_per_frame:collector_cpu_per_frame
      ~on_arena:(sink_rows sink)
      ~wire ~node:cnode ~port:7441 ()
  in
  let agent =
    Agent.create ~telemetry:reg ~config ~wire ~node:anode
      ~collector:(Collector.endpoint collector) ()
  in
  Agent.start agent;
  { engine; anode; agent; collector; sink }

(* Feed [n] own-host records, one every [every], starting at [from]. *)
let feed_records m ~n ~every ~from =
  for i = 0 to n - 1 do
    let at = ST.add from (ST.span_scale (float_of_int i) every) in
    ignore
      (Engine.schedule_at m.engine ~time:at (fun () ->
           let ts = ST.to_ns (Node.local_time m.anode) in
           Agent.observe m.agent
             (H.act ~kind:Activity.Send ~ts ~ctx:(H.ctx ~host:"web1" ())
                ~flow:H.web_app_flow ~size:100)))
  done

let check_identity what (s : Agent.stats) =
  Alcotest.(check int)
    (what ^ ": observed = reduced + dropped + acked + spooled + queued")
    s.Agent.observed
    (s.Agent.reduced + Agent.dropped_total s + s.Agent.acked_records
   + s.Agent.spooled_records + s.Agent.queued_records)

let test_micro_delivery_and_acks () =
  let config = { Agent.default_config with Agent.batch_records = 100 } in
  let m = make_micro ~config () in
  feed_records m ~n:1000 ~every:(ST.us 500) ~from:(ST.of_ns 1_000_000);
  Engine.run m.engine;
  let s = Agent.stats m.agent in
  check_identity "faultless" s;
  Alcotest.(check int) "all observed" 1000 s.Agent.observed;
  Alcotest.(check int) "all acked" 1000 s.Agent.acked_records;
  Alcotest.(check int) "spool drained" 0 s.Agent.spooled_records;
  Alcotest.(check int) "batch drained" 0 s.Agent.queued_records;
  Alcotest.(check int) "nothing dropped" 0 (Agent.dropped_total s);
  Alcotest.(check int) "no retransmits" 0 s.Agent.retransmits;
  Alcotest.(check int) "one connection" 1 s.Agent.connections;
  Alcotest.(check int) "collector got every record" 1000
    (Collector.delivered_records m.collector);
  (* in-order delivery per host *)
  let ts = List.rev_map (fun (a : Activity.t) -> ST.to_ns a.Activity.timestamp) !(m.sink) in
  Alcotest.(check bool) "delivered in timestamp order" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 999) ts) (List.tl ts));
  match Collector.stats m.collector with
  | [ ("web1", hs) ] ->
      Alcotest.(check int) "no duplicates" 0 hs.Collector.duplicate_frames;
      Alcotest.(check int) "no skips" 0 hs.Collector.skipped_frames
  | other -> Alcotest.failf "unexpected host stats (%d hosts)" (List.length other)

let test_micro_crash_restart_resends () =
  (* Slow collector: acks lag far behind the sends, so the crash hits
     sent-but-unacked frames that must be retransmitted after restart
     and deduplicated at the collector. *)
  let config = { Agent.default_config with Agent.batch_records = 50 } in
  let m = make_micro ~config ~collector_cpu_per_frame:(ST.ms 200) () in
  (* records keep arriving across the outage: 1 every ms until t=0.5s *)
  feed_records m ~n:500 ~every:(ST.ms 1) ~from:(ST.of_ns 1_000_000);
  ignore
    (Engine.schedule_at m.engine ~time:(ST.of_ns 150_000_000) (fun () ->
         Agent.crash m.agent));
  ignore
    (Engine.schedule_at m.engine ~time:(ST.of_ns 400_000_000) (fun () ->
         Agent.restart m.agent));
  Engine.run m.engine;
  let s = Agent.stats m.agent in
  check_identity "crash/restart" s;
  Alcotest.(check int) "two connections" 2 s.Agent.connections;
  Alcotest.(check bool) "crash dropped records" true (Agent.dropped_total s > 0);
  Alcotest.(check bool) "frames were retransmitted" true (s.Agent.retransmits > 0);
  Alcotest.(check int) "spool drained after restart" 0 s.Agent.spooled_records;
  let delivered = Collector.delivered_records m.collector in
  Alcotest.(check int) "delivered exactly the acked records" s.Agent.acked_records delivered;
  Alcotest.(check bool) "delivery is a subset" true (delivered < s.Agent.observed);
  (match Collector.stats m.collector with
  | [ ("web1", hs) ] ->
      Alcotest.(check bool) "collector deduplicated retransmits" true
        (hs.Collector.duplicate_frames > 0)
  | _ -> Alcotest.fail "expected web1 stats");
  (* no record delivered twice *)
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (a : Activity.t) ->
      let key = (ST.to_ns a.Activity.timestamp, a.Activity.message.size) in
      if Hashtbl.mem seen key then Alcotest.fail "record delivered twice";
      Hashtbl.replace seen key ())
    !(m.sink)

let test_micro_drop_oldest_eviction () =
  (* Strangle the agent's NIC so unsent frames pile up in the spool and
     Drop_oldest must evict; the [oldest] header lets the collector skip
     the evicted range instead of stalling. *)
  let config =
    {
      Agent.default_config with
      Agent.batch_records = 10;
      max_spool_records = 60;
      max_inflight_frames = 2;
      overflow = Agent.Drop_oldest;
    }
  in
  let m = make_micro ~config () in
  Node.set_nic_bandwidth_bps m.anode 20_000.0;
  feed_records m ~n:600 ~every:(ST.us 500) ~from:(ST.of_ns 1_000_000);
  Engine.run m.engine;
  let s = Agent.stats m.agent in
  check_identity "drop-oldest" s;
  let evicted = List.assoc "evicted" s.Agent.dropped in
  Alcotest.(check bool) "evicted under pressure" true (evicted > 0);
  (match Collector.stats m.collector with
  | [ ("web1", hs) ] ->
      Alcotest.(check bool) "collector skipped the evicted range" true
        (hs.Collector.skipped_frames > 0)
  | _ -> Alcotest.fail "expected web1 stats");
  Alcotest.(check int) "everything shippable was acked" s.Agent.acked_records
    (Collector.delivered_records m.collector);
  (* still in order despite the gaps *)
  let ts = List.rev_map (fun (a : Activity.t) -> ST.to_ns a.Activity.timestamp) !(m.sink) in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "delivered in order despite gaps" true (ordered ts)

let test_micro_block_overflow () =
  let config =
    {
      Agent.default_config with
      Agent.batch_records = 10;
      max_spool_records = 60;
      max_inflight_frames = 2;
      overflow = Agent.Block;
    }
  in
  let m = make_micro ~config () in
  Node.set_nic_bandwidth_bps m.anode 20_000.0;
  feed_records m ~n:600 ~every:(ST.us 500) ~from:(ST.of_ns 1_000_000);
  Engine.run m.engine;
  let s = Agent.stats m.agent in
  check_identity "block" s;
  Alcotest.(check bool) "incoming records dropped" true
    (List.assoc "buffer_full" s.Agent.dropped > 0);
  Alcotest.(check int) "no evictions in block mode" 0 (List.assoc "evicted" s.Agent.dropped);
  match Collector.stats m.collector with
  | [ ("web1", hs) ] ->
      Alcotest.(check int) "no sequence gaps in block mode" 0 hs.Collector.skipped_frames
  | _ -> Alcotest.fail "expected web1 stats"

let test_agent_local_reduction () =
  (* The agent's program filter: the filtered program's records never
     reach the wire, and the reduced count balances the identity. *)
  let config = { Agent.default_config with Agent.drop_programs = [ "sshd" ] } in
  let m = make_micro ~config () in
  for i = 0 to 99 do
    let program = if i mod 2 = 0 then "httpd" else "sshd" in
    ignore
      (Engine.schedule_at m.engine
         ~time:(ST.of_ns ((i + 1) * 1_000_000))
         (fun () ->
           let ts = ST.to_ns (Node.local_time m.anode) in
           Agent.observe m.agent
             (H.act ~kind:Activity.Send ~ts
                ~ctx:(H.ctx ~host:"web1" ~program ())
                ~flow:H.web_app_flow ~size:10)))
  done;
  Engine.run m.engine;
  let s = Agent.stats m.agent in
  check_identity "reduction" s;
  Alcotest.(check int) "observed all" 100 s.Agent.observed;
  Alcotest.(check int) "half reduced away" 50 s.Agent.reduced;
  Alcotest.(check int) "half delivered" 50 (Collector.delivered_records m.collector);
  Alcotest.(check bool) "no sshd record crossed the wire" true
    (List.for_all
       (fun (a : Activity.t) -> a.Activity.context.program <> "sshd")
       !(m.sink))

let () =
  Alcotest.run "collect"
    [
      ( "codec",
        [
          Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "empty frame" `Quick test_empty_frame_roundtrip;
          Alcotest.test_case "frame is header plus payload" `Quick
            test_frame_is_header_plus_payload;
          Alcotest.test_case "byte-by-byte decode" `Quick test_byte_by_byte_decode;
          Alcotest.test_case "truncation is need-more, not corruption" `Quick
            test_truncation_never_errors;
          Alcotest.test_case "byte-flip corpus" `Slow test_byte_flip_corpus;
          Alcotest.test_case "decoder error is sticky" `Quick test_decoder_error_is_sticky;
          Alcotest.test_case "negative length is corruption" `Quick
            test_negative_length_is_corruption;
          Alcotest.test_case "negative varints rejected" `Quick
            test_encode_rejects_negative_varints;
          Alcotest.test_case "timestamps below zero round-trip" `Quick
            test_negative_timestamps_roundtrip;
          qtest prop_chopped_stream_decodes_identically;
          qtest prop_ack_stream_chop;
        ] );
      ( "micro",
        [
          Alcotest.test_case "delivery and acks" `Quick test_micro_delivery_and_acks;
          Alcotest.test_case "crash/restart resends from last ack" `Quick
            test_micro_crash_restart_resends;
          Alcotest.test_case "drop-oldest eviction and gap skip" `Quick
            test_micro_drop_oldest_eviction;
          Alcotest.test_case "block overflow drops incoming" `Quick
            test_micro_block_overflow;
          Alcotest.test_case "agent-local reduction" `Quick test_agent_local_reduction;
          Alcotest.test_case "in-band plane under 200 ms skew" `Quick test_deploy_under_skew;
        ] );
    ]
