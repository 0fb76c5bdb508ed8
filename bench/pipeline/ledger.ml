(* The measuring process's jobs: load a generated input, set up, and run
   the workload's job in timed reps with tracing off. Everything runs in
   one domain and one thread, without sockets. *)

module Sim_time = Simnet.Sim_time
module Arena = Trace.Arena
module Json = Core.Json
module Frame = Collect.Frame

let ( let* ) = Result.bind
let now = Spans.now

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- inputs ---- *)

type inputs = {
  w : Workload.t;
  meta : Workload.meta;
  bytes : string;  (** The PTB1 trace. *)
  gt : Trace.Ground_truth.t;
  config : Core.Correlator.config;
  work : string;  (** Where the capture job writes its store and bundle. *)
}

let load w ~dir =
  let* meta = Workload.load_meta dir in
  let bytes = Workload.read_file (Workload.trace_file dir) in
  let* gt = Trace.Ground_truth.load ~path:(Workload.oracle_file dir) in
  let config =
    Core.Correlator.config ~transform:meta.Workload.transform ~window:meta.Workload.window ()
  in
  Ok { w; meta; bytes; gt; config; work = dir }

let decode bytes = ok_or_fail "decode" (Trace.Binary_format.decode_native bytes)

(* ---- live feed: per-host PTC1 frames in watermark order ---- *)

(* The collection agent's default batch. *)
let frame_rows = 256

type feed = {
  hosts : string array;
  frames : (int * string) array;  (** (host index, PTC1 bytes), in delivery order. *)
  watermarks : int array;  (** Per delivered frame, host-local ns. *)
  host_frames : (int * int) array array;
      (** Per host: (watermark, delivery index), in sequence order. *)
  bytes_total : int;
}

let cut_frames arenas =
  let hosts = Array.of_list (List.map Arena.hostname arenas) in
  let cut = ref [] in
  List.iteri
    (fun h a ->
      let n = Arena.length a in
      let seq = ref 0 and lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + frame_rows) in
        let chunk = Arena.create_sid ~capacity:(hi - !lo) (Arena.host_sid a) in
        Arena.append_range chunk a ~lo:!lo ~hi;
        let wm = Arena.ts a (hi - 1) in
        let bytes =
          Frame.encode ~seq:!seq ~oldest:!seq ~host:hosts.(h) ~watermark:(Sim_time.of_ns wm)
            ~payload:(Frame.encode_payload_arena chunk)
        in
        cut := (wm, h, !seq, bytes) :: !cut;
        incr seq;
        lo := hi
      done)
    arenas;
  let order = Array.of_list (List.rev !cut) in
  Array.stable_sort (fun (w1, h1, s1, _) (w2, h2, s2, _) -> compare (w1, h1, s1) (w2, h2, s2)) order;
  let per_host = Array.make (Array.length hosts) [] in
  Array.iteri (fun i (wm, h, _, _) -> per_host.(h) <- (wm, i) :: per_host.(h)) order;
  {
    hosts;
    frames = Array.map (fun (_, h, _, b) -> (h, b)) order;
    watermarks = Array.map (fun (wm, _, _, _) -> wm) order;
    host_frames = Array.map (fun l -> Array.of_list (List.rev l)) per_host;
    bytes_total = Array.fold_left (fun acc (_, _, _, b) -> acc + String.length b) 0 order;
  }

let deliver decoders (h, bytes) =
  let d = decoders.(h) in
  Frame.Decoder.feed d bytes;
  match Frame.Decoder.next d with
  | Ok (Some f) -> f.Frame.arena
  | Ok None -> failwith "frame decode: incomplete frame"
  | Error e -> failwith ("frame decode: " ^ e)

(* ---- the jobs ---- *)

type output = { finished : Core.Cag.t list; deformed : int }

let output ~finished ~unfinished =
  { finished; deformed = Path_digest.deformed_count ~finished ~unfinished }

let ordered o = Path_digest.ordered ~finished:o.finished ~deformed:o.deformed
let canonical o = Path_digest.canonical ~finished:o.finished ~deformed:o.deformed

let aggregate patterns =
  List.iter
    (fun p ->
      ignore (Sys.opaque_identity (Core.Aggregate.of_pattern p));
      ignore (Sys.opaque_identity (Core.Aggregate.hop_tails p)))
    patterns

let offline_job config bytes =
  let r = Core.Correlator.correlate_arena config (decode bytes) in
  aggregate (Core.Pattern.classify r.Core.Correlator.cags);
  output ~finished:r.Core.Correlator.cags ~unfinished:r.Core.Correlator.deformed

let online_output online =
  output ~finished:(Core.Online.paths online) ~unfinished:(Core.Online.deformed online)

let live_job ?on_path ?(before = fun _ -> ()) config feed =
  let decoders = Array.map (fun _ -> Frame.Decoder.create ()) feed.hosts in
  let online = Core.Online.create ~config ~hosts:(Array.to_list feed.hosts) ?on_path () in
  Array.iteri
    (fun i fr ->
      before i;
      Core.Online.observe_arena online (deliver decoders fr))
    feed.frames;
  Core.Online.finish online;
  online_output online

let store_dir inp = Filename.concat inp.work "store"
let bundle_path inp = Filename.concat inp.work "run.ptz"

let write_store inp arenas =
  rm_rf (store_dir inp);
  let w = Store.Writer.create ~roll_records:4096 ~dir:(store_dir inp) () in
  Store.Writer.ingest_native w arenas;
  Store.Writer.close w

let pack inp =
  ok_or_fail "pack"
    (Bundle.Pack.pack ~jobs:1 ~config:inp.config ~source:(`Store_dir (store_dir inp))
       ~path:(bundle_path inp) ())

(* The middle 10% of the trace's time range. *)
let middle_window arenas =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) a ->
        match Arena.time_bounds a with
        | Some (a_lo, a_hi) -> (min lo (Sim_time.to_ns a_lo), max hi (Sim_time.to_ns a_hi))
        | None -> (lo, hi))
      (max_int, min_int) arenas
  in
  let span = hi - lo in
  Store.Query.predicate ~since_ns:(lo + (span * 45 / 100)) ~until_ns:(lo + (span * 55 / 100)) ()

type read_times = { open_s : float; walk_s : float; query_s : float }

(* A cold read of the bundle: open it, walk one path, query the middle of
   the embedded store. *)
let bundle_read inp window =
  let t0 = now () in
  let r = ok_or_fail "bundle open" (Bundle.Reader.open_file (bundle_path inp)) in
  let t1 = now () in
  ignore (ok_or_fail "bundle walk" (Bundle.Walk.view r ()));
  let t2 = now () in
  ignore (ok_or_fail "bundle query" (Bundle.Reader.query ~jobs:1 r window));
  let t3 = now () in
  (r, { open_s = t1 -. t0; walk_s = t2 -. t1; query_s = t3 -. t2 })

(* The paths a reader decodes from its bundle (cached after the walk). *)
let bundle_output r =
  let decoded = ok_or_fail "bundle paths" (Bundle.Reader.paths r) in
  match Option.bind (Bundle.Reader.summary_json r) (Json.member "deformed") with
  | Some (Json.Int deformed) ->
      { finished = List.map (fun p -> p.Bundle.Codec.cag) decoded.Bundle.Codec.paths; deformed }
  | _ -> failwith "bundle summary: no deformed count"

let capture_job inp arenas =
  ignore (write_store inp arenas);
  ignore (pack inp)

let read_back inp window = bundle_output (fst (bundle_read inp window))

(* ---- set-up ---- *)

type prepared = {
  inp : inputs;
  arenas : Arena.t list;  (** Decoded once, for the live and capture jobs. *)
  feed : feed option;  (** Live only. *)
  window : Store.Query.predicate;  (** The bundle read's query window. *)
  warm_ordered : string;  (** The warm-up's output, which every rep must reproduce. *)
}

(* Everything [setup_s] covers after the generator: load, decode, frame
   cutting for live, and one warm-up pass of the job (which also fills
   the process-wide intern tables). Returns the warm-up's output too. *)
let setup w ~dir =
  let* inp = load w ~dir in
  let arenas = decode inp.bytes in
  let window = middle_window arenas in
  let prepared ?feed o = Ok ({ inp; arenas; feed; window; warm_ordered = ordered o }, o) in
  match w.Workload.kind with
  | Workload.Offline -> prepared (offline_job inp.config inp.bytes)
  | Workload.Live ->
      let feed = cut_frames arenas in
      prepared ~feed (live_job inp.config feed)
  | Workload.Capture ->
      capture_job inp arenas;
      prepared (read_back inp window)

(* ---- timed reps ---- *)

type tally = {
  mutable ops : int;
  mutable failed : int;
  mutable errors : string list;  (** Newest first; bounded. *)
}

let tally () = { ops = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 8 then t.errors <- msg :: t.errors

(* Count one op, failed unless [ok]. *)
let check t what ok =
  t.ops <- t.ops + 1;
  if not ok then fail t (what ^ ": output differs from the reference")

let timed f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One timed rep of the workload's job: its seconds and its output.
   The capture job's output is the bundle it wrote, read back. *)
let rep p =
  let inp = p.inp in
  match inp.w.Workload.kind with
  | Workload.Offline -> timed (fun () -> offline_job inp.config inp.bytes)
  | Workload.Live -> timed (fun () -> live_job inp.config (Option.get p.feed))
  | Workload.Capture ->
      let (), secs = timed (fun () -> capture_job inp p.arenas) in
      (read_back inp p.window, secs)

(* Reps until [seconds] have passed, and at least [min_reps]; each must
   reproduce the warm-up's output exactly. Returns the passing reps'
   seconds. *)
let run_reps t ~seconds ~min_reps p =
  let start = now () in
  let rec go acc =
    if List.length acc >= min_reps && now () -. start >= seconds then List.rev acc
    else if t.failed > 3 * min_reps then List.rev acc
    else
      match rep p with
      | o, secs ->
          let ok = String.equal (ordered o) p.warm_ordered in
          check t "rep" ok;
          go (if ok then secs :: acc else acc)
      | exception e ->
          t.ops <- t.ops + 1;
          fail t (Printexc.to_string e);
          go acc
  in
  go []
