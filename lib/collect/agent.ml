module Engine = Simnet.Engine
module Node = Simnet.Node
module Cpu = Simnet.Cpu
module Tcp = Simnet.Tcp
module Sim_time = Simnet.Sim_time
module Activity = Trace.Activity
module R = Telemetry.Registry

let program_name = "ptagent"

type overflow = Drop_oldest | Block

type config = {
  batch_records : int;
  max_spool_records : int;
  overflow : overflow;
  drop_programs : string list;
  partial : Core.Transform.config option;
  max_inflight_frames : int;
}

let default_config =
  {
    batch_records = 256;
    max_spool_records = 65536;
    overflow = Drop_oldest;
    drop_programs = [];
    partial = None;
    max_inflight_frames = 8;
  }

(* Cut a partial batch after this long, bounding delivery lag. *)
let flush_interval = Sim_time.ms 50

(* Encode/reduce CPU cost: a fixed cost per frame cut plus one per record. *)
let cpu_per_frame = Sim_time.us 100
let cpu_per_record = Sim_time.us 1

(* Bytes per send syscall. *)
let send_chunk = 8192

(* Back-off before redialling. *)
let reconnect_delay = Sim_time.ms 100

(* A cut batch spooled as an encoded frame body, resendable until acked. *)
type entry = {
  seq : int;
  payload : string;
  records : int;
  watermark : Sim_time.t;
  mutable sent : bool;  (* transmitted on the current connection *)
  mutable ever_sent : bool;  (* transmitted on any connection (retransmit marker) *)
  mutable nudged : bool;  (* already resent once to communicate an eviction gap *)
}

let drop_reasons = [ "agent_down"; "buffer_full"; "crash"; "evicted" ]

type t = {
  wire : Wire.t;
  node : Node.t;
  engine : Engine.t;
  collector : Simnet.Address.endpoint;
  cfg : config;
  hostname : string;
  mutable proc : Simnet.Proc.t;
  mutable sock : Tcp.socket option;
  mutable alive : bool;
  mutable epoch : int;
      (* bumped by crash/restart so continuations parked across the
         transition (CPU completions, socket callbacks) detect they
         belong to a dead incarnation and do nothing *)
  mutable batch : Trace.Arena.t;  (* open batch, append order = probe order *)
  encode_q : (Trace.Arena.t * int * Sim_time.t) Queue.t;
  mutable queued : int;  (* records in encode_q *)
  mutable encoding : bool;
  mutable spool : entry list;  (* oldest first; send order *)
  mutable spool_records : int;
  mutable next_seq : int;
  mutable last_acked : int;
  mutable sending : bool;
  mutable in_flight : entry option;
  mutable flush_timer : Engine.timer option;
  program_filter : Core.Transform.memo option;  (* set iff [drop_programs] is not empty *)
  partial : Core.Partial.t option;
  (* stats mirrors (exact per-run view; telemetry accumulates) *)
  mutable s_observed : int;
  mutable s_reduced : int;
  mutable s_partial_coalesced : int;
  s_dropped : (string, int ref) Hashtbl.t;
  mutable s_frames : int;
  mutable s_retransmits : int;
  mutable s_bytes : int;
  mutable s_acked : int;
  mutable s_connections : int;
  (* telemetry handles *)
  c_observed : R.counter;
  c_reduced : R.counter;
  c_partial_coalesced : R.counter;
  c_dropped : (string, R.counter) Hashtbl.t;
  c_frames : R.counter;
  c_retransmits : R.counter;
  c_bytes : R.counter;
  c_acked : R.counter;
  c_connections : R.counter;
  g_spool_peak : R.gauge;
}

let host t = t.hostname
let batch_n t = Trace.Arena.length t.batch
let held t = batch_n t + t.queued + t.spool_records
let oldest_resendable t = match t.spool with e :: _ -> e.seq | [] -> t.next_seq

let drop t reason n =
  if n > 0 then begin
    (match Hashtbl.find_opt t.s_dropped reason with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.s_dropped reason (ref n));
    match Hashtbl.find_opt t.c_dropped reason with
    | Some c -> R.add c n
    | None -> ()
  end

let create ?(telemetry = R.default) ?(config = default_config) ~wire ~node ~collector () =
  if config.batch_records <= 0 then invalid_arg "Agent.create: batch_records";
  if config.max_spool_records <= 0 then invalid_arg "Agent.create: max_spool_records";
  let hostname = Node.hostname node in
  let labels = [ ("host", hostname) ] in
  let counter help name = R.counter telemetry ~help ~labels name in
  let c_dropped = Hashtbl.create 8 in
  List.iter
    (fun reason ->
      Hashtbl.replace c_dropped reason
        (R.counter telemetry ~help:"Records lost at the collection agent"
           ~labels:(("host", hostname) :: [ ("reason", reason) ])
           "pt_collect_dropped_total"))
    drop_reasons;
  let s_dropped = Hashtbl.create 8 in
  List.iter (fun reason -> Hashtbl.replace s_dropped reason (ref 0)) drop_reasons;
  {
    wire;
    node;
    engine = Node.engine node;
    collector;
    cfg = config;
    hostname;
    proc = Node.spawn node ~program:program_name;
    sock = None;
    alive = true;
    epoch = 0;
    batch = Trace.Arena.create ~capacity:(max 1 config.batch_records) ~host:hostname ();
    encode_q = Queue.create ();
    queued = 0;
    encoding = false;
    spool = [];
    spool_records = 0;
    next_seq = 0;
    last_acked = -1;
    sending = false;
    in_flight = None;
    flush_timer = None;
    program_filter =
      (match config.drop_programs with
      | [] -> None
      | drop_programs ->
          Some
            (Core.Transform.memo (Core.Transform.config ~entry_points:[] ~drop_programs ())));
    partial = Option.map Core.Partial.create config.partial;
    s_observed = 0;
    s_reduced = 0;
    s_partial_coalesced = 0;
    s_dropped;
    s_frames = 0;
    s_retransmits = 0;
    s_bytes = 0;
    s_acked = 0;
    s_connections = 0;
    c_observed = counter "Own-host records accepted from the probe" "pt_collect_observed_total";
    c_reduced =
      counter "Records removed before framing (program filter, partial pass)"
        "pt_collect_reduced_total";
    c_partial_coalesced =
      counter "Rows merged into a local run head by the partial pass"
        "pt_hier_partial_coalesced_total";
    c_dropped;
    c_frames = counter "Frame transmissions (including retransmits)" "pt_collect_frames_shipped_total";
    c_retransmits = counter "Frames retransmitted after reconnect" "pt_collect_retransmits_total";
    c_bytes = counter "Wire bytes shipped to the collector" "pt_collect_bytes_shipped_total";
    c_acked = counter "Records acknowledged by the collector" "pt_collect_acked_records_total";
    c_connections = counter "Connections dialled to the collector" "pt_collect_connections_total";
    g_spool_peak =
      R.gauge telemetry ~help:"Peak records buffered at the agent (batch + encode queue + spool)"
        ~labels "pt_collect_spool_peak_records";
  }

(* Frames written to the socket but not yet acknowledged. The send
   window bounds this: the simulated socket buffer is unbounded, so
   without application-level flow control the whole spool would be
   written eagerly and backpressure (eviction) could never engage. *)
let inflight_frames t = List.length (List.filter (fun e -> e.sent) t.spool)

let rec pump t =
  match t.sock with
  | Some sock
    when t.alive && (not t.sending) && inflight_frames t < t.cfg.max_inflight_frames -> (
      match List.find_opt (fun e -> not e.sent) t.spool with
      | None -> ()
      | Some e ->
          t.sending <- true;
          t.in_flight <- Some e;
          if e.ever_sent then begin
            t.s_retransmits <- t.s_retransmits + 1;
            R.incr t.c_retransmits
          end;
          e.sent <- true;
          e.ever_sent <- true;
          let bytes =
            Frame.encode ~seq:e.seq ~oldest:(oldest_resendable t) ~host:t.hostname
              ~watermark:e.watermark ~payload:e.payload
          in
          t.s_frames <- t.s_frames + 1;
          R.incr t.c_frames;
          t.s_bytes <- t.s_bytes + String.length bytes;
          R.add t.c_bytes (String.length bytes);
          let epoch = t.epoch in
          Wire.send t.wire sock ~proc:t.proc ~chunk:send_chunk bytes ~k:(fun () ->
              if t.epoch = epoch then begin
                t.sending <- false;
                t.in_flight <- None;
                ensure_horizon t;
                pump t
              end))
  | _ -> ()

(* An eviction can open a sequence gap underneath a frame that was
   transmitted earlier, whose [oldest] header therefore predates the
   gap: once everything below the gap is acked, the collector would wait
   forever for the evicted seqs. Resend the stranded head once — the
   retransmit carries the fresh horizon and unblocks delivery. *)
and ensure_horizon t =
  match t.spool with
  | e :: _
    when e.sent && (not e.nudged)
         && (match t.in_flight with Some f -> not (f == e) | None -> true)
         && e.seq > t.last_acked + 1 ->
      e.nudged <- true;
      e.sent <- false;
      pump t
  | _ -> ()

let handle_ack t seq =
  if seq > t.last_acked then begin
    t.last_acked <- seq;
    let acked, kept = List.partition (fun e -> e.seq <= seq) t.spool in
    t.spool <- kept;
    List.iter
      (fun e ->
        t.spool_records <- t.spool_records - e.records;
        t.s_acked <- t.s_acked + e.records;
        R.add t.c_acked e.records)
      acked;
    ensure_horizon t;
    (* the ack freed send-window slots *)
    pump t
  end

let rec connect t =
  if t.alive && t.sock = None then begin
    let epoch = t.epoch in
    Tcp.connect (Wire.stack t.wire) ~node:t.node ~proc:t.proc ~dst:t.collector
      ~k:(fun sock ->
        if t.epoch <> epoch || not t.alive then Tcp.close (Wire.stack t.wire) sock
        else begin
          t.sock <- Some sock;
          t.s_connections <- t.s_connections + 1;
          R.incr t.c_connections;
          (* resend-from-last-ack: everything still spooled goes again *)
          List.iter (fun e -> e.sent <- false) t.spool;
          recv_loop t sock epoch (Frame.Ack_decoder.create ());
          pump t
        end)
  end

and recv_loop t sock epoch dec =
  Wire.recv t.wire sock ~proc:t.proc
    ~k:(fun data ->
      if t.epoch <> epoch then ()
      else if String.equal data "" then begin
        (* collector went away: redial after the back-off *)
        t.sock <- None;
        t.sending <- false;
        t.in_flight <- None;
        if t.alive then
          ignore
            (Engine.schedule_after t.engine ~delay:reconnect_delay (fun () ->
                 if t.epoch = epoch then connect t))
      end
      else begin
        Frame.Ack_decoder.feed dec data;
        (match Frame.Ack_decoder.drain dec with
        | Ok seqs -> List.iter (handle_ack t) seqs
        | Error _ ->
            (* a corrupt ack stream cannot be trusted; drop the
               connection and let the redial resynchronise *)
            Tcp.close (Wire.stack t.wire) sock);
        if t.epoch = epoch then recv_loop t sock epoch dec
      end)
    ()

let rec kick_encode t =
  if t.alive && (not t.encoding) && not (Queue.is_empty t.encode_q) then begin
    t.encoding <- true;
    let arena, n, watermark = Queue.peek t.encode_q in
    (* the program filter is a per-context decision, so one host's batch
       is enough to make it; request-level reduction needs the merged
       stream and belongs to the collector side *)
    let kept =
      match t.program_filter with
      | None -> arena
      | Some m ->
          let out = Trace.Arena.create_sid ~capacity:(max 1 n) (Trace.Arena.host_sid arena) in
          for i = 0 to n - 1 do
            if Core.Transform.classify_row m arena i >= 0 then Trace.Arena.append_row out arena i
          done;
          out
    in
    (* partial correlation runs after the program filter: it only removes
       what the downstream correlator would remove or merge itself *)
    let kept =
      match t.partial with
      | None -> kept
      | Some p ->
          let r = Core.Partial.reduce p kept in
          t.s_partial_coalesced <- t.s_partial_coalesced + r.Core.Partial.rows_coalesced;
          R.add t.c_partial_coalesced r.Core.Partial.rows_coalesced;
          r.Core.Partial.arena
    in
    let kept_n = Trace.Arena.length kept in
    let payload = Frame.encode_payload_arena kept in
    let work =
      Sim_time.span_add cpu_per_frame
        (Sim_time.span_scale (float_of_int n) cpu_per_record)
    in
    let epoch = t.epoch in
    Cpu.submit (Node.cpu t.node) ~work (fun () ->
        if t.epoch = epoch then begin
          t.encoding <- false;
          ignore (Queue.pop t.encode_q);
          t.queued <- t.queued - n;
          if n > kept_n then begin
            t.s_reduced <- t.s_reduced + (n - kept_n);
            R.add t.c_reduced (n - kept_n)
          end;
          let e =
            {
              seq = t.next_seq;
              payload;
              records = kept_n;
              watermark;
              sent = false;
              ever_sent = false;
              nudged = false;
            }
          in
          t.next_seq <- t.next_seq + 1;
          t.spool <- t.spool @ [ e ];
          t.spool_records <- t.spool_records + kept_n;
          pump t;
          kick_encode t
        end)
  end

let cut t =
  let n = batch_n t in
  if n > 0 then begin
    (match t.flush_timer with
    | Some tm ->
        Engine.cancel t.engine tm;
        t.flush_timer <- None
    | None -> ());
    let arena = t.batch in
    (* the probe feeds in host-local time order, so the newest record is
       the last row appended *)
    let watermark = Sim_time.of_ns (Trace.Arena.ts arena (n - 1)) in
    t.batch <- Trace.Arena.create ~capacity:(max 1 t.cfg.batch_records) ~host:t.hostname ();
    Queue.push (arena, n, watermark) t.encode_q;
    t.queued <- t.queued + n;
    kick_encode t
  end

let arm_flush t =
  if t.flush_timer = None then
    t.flush_timer <-
      Some
        (Engine.schedule_after t.engine ~delay:flush_interval (fun () ->
             t.flush_timer <- None;
             if t.alive then cut t))

(* Admit under Drop_oldest by evicting never-transmitted frames. Send
   order equals spool order, so the unsent frames are a contiguous
   suffix behind the sent-but-unacked prefix; evicting the suffix's
   oldest member keeps every remaining range contiguous, and frames the
   collector may already hold are never double-counted as dropped. *)
let evict_for_room t =
  let rec evict_first_unsent acc = function
    | e :: rest when e.sent -> evict_first_unsent (e :: acc) rest
    | e :: rest ->
        t.spool <- List.rev_append acc rest;
        t.spool_records <- t.spool_records - e.records;
        drop t "evicted" e.records;
        true
    | [] -> false
  in
  let continue = ref true in
  while !continue && held t >= t.cfg.max_spool_records do
    if not (evict_first_unsent [] t.spool) then continue := false
  done

let observe t (a : Activity.t) =
  if String.equal a.Activity.context.host t.hostname then begin
    t.s_observed <- t.s_observed + 1;
    R.incr t.c_observed;
    if not t.alive then drop t "agent_down" 1
    else begin
      if held t >= t.cfg.max_spool_records then begin
        match t.cfg.overflow with
        | Drop_oldest -> evict_for_room t
        | Block -> ()
      end;
      if held t >= t.cfg.max_spool_records then drop t "buffer_full" 1
      else begin
        Trace.Arena.append_activity t.batch a;
        R.set_max t.g_spool_peak (float_of_int (held t));
        if batch_n t >= t.cfg.batch_records then cut t else arm_flush t
      end
    end
  end

let attach t probe =
  Trace.Probe.exempt_program probe program_name;
  Trace.Probe.add_listener probe (observe t)

let start t = connect t
let flush t = if t.alive then cut t

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.epoch <- t.epoch + 1;
    (match t.sock with Some s -> Tcp.close (Wire.stack t.wire) s | None -> ());
    t.sock <- None;
    t.sending <- false;
    t.in_flight <- None;
    t.encoding <- false;
    (match t.flush_timer with
    | Some tm ->
        Engine.cancel t.engine tm;
        t.flush_timer <- None
    | None -> ());
    (* the open batch and encode queue live in process memory: lost *)
    drop t "crash" (batch_n t + t.queued);
    Trace.Arena.clear t.batch;
    Queue.clear t.encode_q;
    t.queued <- 0
    (* the spool is the agent's disk frame store: it survives *)
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
    t.epoch <- t.epoch + 1;
    t.proc <- Node.spawn t.node ~program:program_name;
    connect t
  end

type stats = {
  observed : int;
  reduced : int;
  partial_coalesced : int;
  dropped : (string * int) list;
  frames_shipped : int;
  retransmits : int;
  bytes_shipped : int;
  acked_records : int;
  spooled_records : int;
  queued_records : int;
  connections : int;
}

let stats t =
  {
    observed = t.s_observed;
    reduced = t.s_reduced;
    partial_coalesced = t.s_partial_coalesced;
    dropped =
      Hashtbl.fold (fun reason r acc -> (reason, !r) :: acc) t.s_dropped []
      |> List.sort compare;
    frames_shipped = t.s_frames;
    retransmits = t.s_retransmits;
    bytes_shipped = t.s_bytes;
    acked_records = t.s_acked;
    spooled_records = t.spool_records;
    queued_records = batch_n t + t.queued;
    connections = t.s_connections;
  }

let dropped_total s = List.fold_left (fun acc (_, n) -> acc + n) 0 s.dropped
