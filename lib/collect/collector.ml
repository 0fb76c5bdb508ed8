module Engine = Simnet.Engine
module Node = Simnet.Node
module Cpu = Simnet.Cpu
module Tcp = Simnet.Tcp
module Sim_time = Simnet.Sim_time
module Address = Simnet.Address
module R = Telemetry.Registry

type host_state = {
  mutable expected : int;  (* next seq to deliver, in order *)
  pending : (int, Frame.t) Hashtbl.t;  (* arrived out of order *)
  mutable watermark : Sim_time.t;
  mutable delivered_frames : int;
  mutable delivered_records : int;
  mutable duplicate_frames : int;
  mutable skipped_frames : int;
  c_frames : R.counter;
  c_records : R.counter;
  c_duplicates : R.counter;
  c_skipped : R.counter;
  g_watermark : R.gauge;
}

(* Bytes per recv syscall, and the decode CPU cost per delivered record
   on top of the per-frame cost. *)
let recv_chunk = 8192
let cpu_per_record = Sim_time.ns 500

type t = {
  wire : Wire.t;
  node : Node.t;
  engine : Engine.t;
  port : int;
  cpu_per_frame : Sim_time.span;
  on_arena : Trace.Arena.t -> unit;
  hosts : (string, host_state) Hashtbl.t;
  telemetry : R.t;
  h_lag : Telemetry.Histogram.t;
  c_decode_errors : R.counter;
}

let host_state t hostname =
  match Hashtbl.find_opt t.hosts hostname with
  | Some s -> s
  | None ->
      let labels = [ ("host", hostname) ] in
      let counter help name = R.counter t.telemetry ~help ~labels name in
      let s =
        {
          expected = 0;
          pending = Hashtbl.create 16;
          watermark = Sim_time.zero;
          delivered_frames = 0;
          delivered_records = 0;
          duplicate_frames = 0;
          skipped_frames = 0;
          c_frames = counter "Frames delivered in order to the sink" "pt_collect_delivered_frames_total";
          c_records = counter "Records delivered to the sink" "pt_collect_delivered_records_total";
          c_duplicates = counter "Duplicate frames discarded (retransmits)" "pt_collect_duplicate_frames_total";
          c_skipped = counter "Frame seqs skipped as permanent agent-side losses" "pt_collect_skipped_frames_total";
          g_watermark =
            R.gauge t.telemetry ~help:"Newest delivered host-local watermark (seconds)"
              ~labels "pt_collect_watermark_seconds";
        }
      in
      Hashtbl.replace t.hosts hostname s;
      s

let deliver t s (f : Frame.t) =
  s.delivered_frames <- s.delivered_frames + 1;
  R.incr s.c_frames;
  let arena = f.Frame.arena in
  let n = Trace.Arena.length arena in
  s.delivered_records <- s.delivered_records + n;
  R.add s.c_records n;
  if Sim_time.(f.Frame.watermark > s.watermark) then begin
    s.watermark <- f.Frame.watermark;
    R.set s.g_watermark (Sim_time.to_float_s f.Frame.watermark)
  end;
  let now = Engine.now t.engine in
  for i = 0 to n - 1 do
    (* delivery lag vs the probe's stamp; clamped at zero because the
       stamp is a skewed host-local clock *)
    let ts = Sim_time.of_ns (Trace.Arena.ts arena i) in
    let lag = Sim_time.span_to_float_s (Sim_time.diff now ts) in
    Telemetry.Histogram.observe t.h_lag (Float.max 0. lag)
  done;
  t.on_arena arena

let handle_frame t (f : Frame.t) =
  let s = host_state t f.Frame.host in
  (* [oldest] is the agent's resend horizon: anything missing below it
     was evicted at the agent and will never arrive *)
  if f.Frame.oldest > s.expected then begin
    (* The horizon jumped past a gap.  Frames stashed in [pending] below
       the new horizon DID arrive — deliver them in seq order before
       advancing, and count only the genuinely-missing seqs as skipped. *)
    for seq = s.expected to f.Frame.oldest - 1 do
      match Hashtbl.find_opt s.pending seq with
      | Some g ->
          Hashtbl.remove s.pending seq;
          deliver t s g
      | None ->
          s.skipped_frames <- s.skipped_frames + 1;
          R.incr s.c_skipped
    done;
    s.expected <- f.Frame.oldest
  end;
  if f.Frame.seq < s.expected || Hashtbl.mem s.pending f.Frame.seq then begin
    s.duplicate_frames <- s.duplicate_frames + 1;
    R.incr s.c_duplicates
  end
  else Hashtbl.replace s.pending f.Frame.seq f;
  (* flush even on a duplicate: a retransmit's fresh [oldest] may have
     advanced [expected] past a gap that stashed frames were waiting on *)
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt s.pending s.expected with
    | Some g ->
        Hashtbl.remove s.pending s.expected;
        s.expected <- s.expected + 1;
        deliver t s g
    | None -> continue := false
  done;
  s

let serve t sock =
  let proc = Node.spawn t.node ~program:"ptcollect" in
  let dec = Frame.Decoder.create () in
  (* cumulative acks, per connection: re-acking on a fresh connection
     tells a restarted agent where to resume *)
  let last_acked = Hashtbl.create 4 in
  let ack_host hostname (s : host_state) k =
    let cum = s.expected - 1 in
    let prev = Option.value (Hashtbl.find_opt last_acked hostname) ~default:(-1) in
    if cum > prev then begin
      Hashtbl.replace last_acked hostname cum;
      Wire.send t.wire sock ~proc (Frame.encode_ack cum) ~k
    end
    else k ()
  in
  let rec loop () =
    Wire.recv t.wire sock ~proc ~max:recv_chunk
      ~k:(fun data ->
        if String.equal data "" then Tcp.close (Wire.stack t.wire) sock
        else begin
          Frame.Decoder.feed dec data;
          match Frame.Decoder.drain dec with
          | Error _ ->
              R.incr t.c_decode_errors;
              Tcp.close (Wire.stack t.wire) sock
          | Ok [] -> loop ()
          | Ok frames ->
              let work =
                List.fold_left
                  (fun acc (f : Frame.t) ->
                    Sim_time.span_add acc
                      (Sim_time.span_add t.cpu_per_frame
                         (Sim_time.span_scale
                            (float_of_int (Frame.records f))
                            cpu_per_record)))
                  Sim_time.span_zero frames
              in
              Cpu.submit (Node.cpu t.node) ~work (fun () ->
                  let touched = Hashtbl.create 4 in
                  List.iter
                    (fun (f : Frame.t) ->
                      let s = handle_frame t f in
                      Hashtbl.replace touched f.Frame.host s)
                    frames;
                  (* one cumulative ack per touched host, then read on *)
                  let rec ack_all = function
                    | [] -> loop ()
                    | (hostname, s) :: rest ->
                        ack_host hostname s (fun () -> ack_all rest)
                  in
                  ack_all (Hashtbl.fold (fun h s acc -> (h, s) :: acc) touched []))
        end)
      ()
  in
  loop ()

let create ?(telemetry = R.default) ?(cpu_per_frame = Sim_time.us 50) ?(on_arena = fun _ -> ())
    ~wire ~node ~port () =
  let t =
    {
      wire;
      node;
      engine = Node.engine node;
      port;
      cpu_per_frame;
      on_arena;
      hosts = Hashtbl.create 8;
      telemetry;
      h_lag =
        R.histogram telemetry
          ~help:"Record delivery lag at the collector vs the probe timestamp"
          "pt_collect_delivery_lag_seconds";
      c_decode_errors =
        R.counter telemetry ~help:"Connections dropped on a corrupt frame stream"
          "pt_collect_decode_errors_total";
    }
  in
  Tcp.listen (Wire.stack wire) node ~port ~accept:(fun sock -> serve t sock);
  t

let endpoint t = Address.endpoint (Node.ip t.node) t.port

type host_stats = {
  delivered_frames : int;
  delivered_records : int;
  duplicate_frames : int;
  skipped_frames : int;
  watermark : Sim_time.t;
  next_seq : int;
}

let stats t =
  Hashtbl.fold
    (fun hostname (s : host_state) acc ->
      ( hostname,
        {
          delivered_frames = s.delivered_frames;
          delivered_records = s.delivered_records;
          duplicate_frames = s.duplicate_frames;
          skipped_frames = s.skipped_frames;
          watermark = s.watermark;
          next_seq = s.expected;
        } )
      :: acc)
    t.hosts []
  |> List.sort compare

let delivered_records t =
  Hashtbl.fold (fun _ (s : host_state) acc -> acc + s.delivered_records) t.hosts 0
