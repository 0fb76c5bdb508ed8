module Activity = Trace.Activity
module Arena = Trace.Arena
module Intern = Trace.Intern
module R = Telemetry.Registry

type stats = {
  segments : int;
  records_in : int;
  records_out : int;
  bytes_in : int;
  bytes_out : int;
  requests_seen : int;
  requests_kept : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d segments; %d -> %d records, %d -> %d bytes; %d/%d requests kept" s.segments
    s.records_in s.records_out s.bytes_in s.bytes_out s.requests_kept s.requests_seen

type t = {
  dir : string;
  policy : Policy.t;
  policy_str : string;
  reduce : Core.Correlator.config option;  (* set iff the policy reduces *)
  roll_records : int;
  telemetry : R.t;
  buffers : (int, Arena.t) Hashtbl.t;  (* host string id -> batch arena *)
  mutable pending : int;
  mutable manifest : Manifest.t;
  mutable stats : stats;
  m_segments : R.counter;
  m_records_in : R.counter;
  m_records_out : R.counter;
  m_bytes_out : R.counter;
  m_flush : Telemetry.Histogram.t;
}

let zero_stats =
  {
    segments = 0;
    records_in = 0;
    records_out = 0;
    bytes_in = 0;
    bytes_out = 0;
    requests_seen = 0;
    requests_kept = 0;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let create ?(telemetry = R.default) ?(policy = Policy.none) ?correlate
    ?(roll_records = 65536) ~dir () =
  let reduce =
    if Policy.is_none policy then None
    else if Option.is_none correlate then
      invalid_arg "Writer.create: a reduction policy needs a ~correlate config"
    else correlate
  in
  if roll_records <= 0 then invalid_arg "Writer.create: roll_records must be positive";
  mkdir_p dir;
  let manifest =
    if Manifest.exists ~dir then
      match Manifest.load ~dir with Ok m -> m | Error e -> failwith e
    else Manifest.empty
  in
  {
    dir;
    policy;
    policy_str = Policy.to_string policy;
    reduce;
    roll_records;
    telemetry;
    buffers = Hashtbl.create 16;
    pending = 0;
    manifest;
    stats = zero_stats;
    m_segments =
      R.counter telemetry ~help:"Segments written by the store writer"
        "pt_store_segments_written_total";
    m_records_in =
      R.counter telemetry ~help:"Activities ingested by the store writer"
        "pt_store_records_ingested_total";
    m_records_out =
      R.counter telemetry ~help:"Activities written to segments after reduction"
        "pt_store_records_written_total";
    m_bytes_out =
      R.counter telemetry ~help:"Segment payload bytes written"
        "pt_store_bytes_written_total";
    m_flush =
      R.histogram telemetry ~help:"Store segment flush wall time, seconds"
        "pt_store_flush_seconds";
  }

let stats t = t.stats

(* Per-host batch arenas, handed out sorted by hostname and each put into
   Log order (timestamp, context, kind) — the order Log.of_list gave the
   text-era batches, so segment bytes are unchanged. *)
let take_batch t =
  let arenas =
    Hashtbl.fold (fun _ arena acc -> arena :: acc) t.buffers []
    |> List.sort (fun a b -> String.compare (Arena.hostname a) (Arena.hostname b))
  in
  List.iter Arena.sort_by_time arenas;
  Hashtbl.reset t.buffers;
  t.pending <- 0;
  arenas

let flush t =
  if t.pending > 0 then begin
    let t0 = Unix.gettimeofday () in
    let batch = take_batch t in
    let raw_records = Arena.total batch in
    let kept, raw_bytes, requests_seen, requests_kept =
      match t.reduce with
      | None -> (batch, None, 0, 0)
      | Some correlate ->
          let reduced, r = Reduce.apply ~telemetry:t.telemetry ~correlate ~policy:t.policy batch in
          ( List.filter (fun a -> Arena.length a > 0) reduced,
            Some r.Reduce.bytes_before,
            r.Reduce.requests_total,
            r.Reduce.requests_kept )
    in
    let records_out = Arena.total kept in
    let meta =
      if records_out = 0 then None
      else begin
        let id = t.manifest.Manifest.next_id in
        let meta =
          Segment.write_native ~dir:t.dir ~id ~policy:t.policy_str ~raw_records ?raw_bytes kept
        in
        t.manifest <- Manifest.add t.manifest meta;
        Manifest.save t.manifest ~dir:t.dir;
        Some meta
      end
    in
    let bytes_out = match meta with Some m -> m.Segment.bytes | None -> 0 in
    let bytes_in = Option.value raw_bytes ~default:bytes_out in
    t.stats <-
      {
        segments = (t.stats.segments + match meta with Some _ -> 1 | None -> 0);
        records_in = t.stats.records_in + raw_records;
        records_out = t.stats.records_out + records_out;
        bytes_in = t.stats.bytes_in + bytes_in;
        bytes_out = t.stats.bytes_out + bytes_out;
        requests_seen = t.stats.requests_seen + requests_seen;
        requests_kept = t.stats.requests_kept + requests_kept;
      };
    (match meta with Some _ -> R.incr t.m_segments | None -> ());
    R.add t.m_records_in raw_records;
    R.add t.m_records_out records_out;
    R.add t.m_bytes_out bytes_out;
    Telemetry.Histogram.observe t.m_flush (Unix.gettimeofday () -. t0)
  end

let buffer_for t host =
  match Hashtbl.find_opt t.buffers host with
  | Some arena -> arena
  | None ->
      let arena = Arena.create_sid ~capacity:256 host in
      Hashtbl.replace t.buffers host arena;
      arena

(* The native ingest row: five ints in, one arena append, no allocation. *)
let observe_row t ~host ~kind ~ts ~ctx ~flow ~size =
  Arena.append (buffer_for t host) ~kind ~ts ~ctx ~flow ~size;
  t.pending <- t.pending + 1;
  if t.pending >= t.roll_records then flush t

(* Interleave the per-host arenas in global (timestamp, context, kind)
   order — the same segment time-partitioning a live feed would produce,
   and exactly the order the text-era ingest got from stable-sorting the
   concatenated lists (ties across inputs resolve by input position). A
   linear scan over the heads is plenty: inputs are per-host, and the
   comparisons are on ints. *)
let ingest_native t arenas =
  let arenas =
    List.filter_map (fun a -> if Arena.length a = 0 then None else Some (Arena.sorted a)) arenas
    |> Array.of_list
  in
  let n = Array.length arenas in
  let cursor = Array.make n 0 in
  let len = Array.map Arena.length arenas in
  (* Ties on timestamp are rare, so the scan compares only the head
     timestamps and falls back to the full (context, kind, input index)
     ordering on an exact tie. *)
  let tie_break i j =
    let a = arenas.(i) and b = arenas.(j) in
    let ai = cursor.(i) and bj = cursor.(j) in
    match Intern.compare_context_id (Arena.ctx_id a ai) (Arena.ctx_id b bj) with
    | 0 -> (
        match
          Int.compare
            (Activity.kind_priority (Arena.kind a ai))
            (Activity.kind_priority (Arena.kind b bj))
        with
        | 0 -> Int.compare i j
        | c -> c)
    | c -> c
  in
  (* One destination batch arena per input (inputs are per-host), looked
     up once and refreshed after each flush swaps the buffers out — not a
     hash probe per record. *)
  let dests = Array.map (fun a -> buffer_for t (Arena.host_sid a)) arenas in
  (* Head timestamps live in a plain int array so the scan is array reads
     and compares; each advance refreshes one slot. *)
  let head_ts =
    Array.init n (fun i -> if len.(i) > 0 then Arena.ts arenas.(i) 0 else max_int)
  in
  (* First index in [lo+1, cap) of [a] whose timestamp reaches [bound]:
     exponential probe then binary search, assuming ts.(lo) < bound. *)
  let gallop_hi a ~lo ~cap bound =
    let prev = ref lo and step = ref 1 in
    let probe = ref (lo + 1) in
    while !probe < cap && Arena.ts a !probe < bound do
      prev := !probe;
      step := !step * 2;
      probe := lo + !step
    done;
    let l = ref (!prev + 1) and r = ref (min !probe cap) in
    while !l < !r do
      let m = (!l + !r) / 2 in
      if Arena.ts a m < bound then l := m + 1 else r := m
    done;
    !l
  in
  let remaining = ref 0 in
  Array.iter (fun l -> remaining := !remaining + l) len;
  while !remaining > 0 do
    (* Best head, plus the runner-up timestamp bounding its run. *)
    let best = ref (-1) and best_ts = ref max_int and next_ts = ref max_int in
    for i = 0 to n - 1 do
      if cursor.(i) < len.(i) then begin
        let ts = head_ts.(i) in
        if !best < 0 then begin
          best := i;
          best_ts := ts
        end
        else if ts < !best_ts then begin
          next_ts := !best_ts;
          best := i;
          best_ts := ts
        end
        else if ts = !best_ts && tie_break i !best < 0 then begin
          next_ts := !best_ts;
          best := i
        end
        else if ts < !next_ts then next_ts := ts
      end
    done;
    let i = !best in
    let a = arenas.(i) in
    let lo = cursor.(i) in
    (* The whole strictly-smaller run moves in one blit: the merge is
       stable per input, so a run is a contiguous slice and only its cut
       points (roll boundary, or a cross-arena timestamp tie needing the
       full tie-break) are decided row by row. *)
    let room = t.roll_records - t.pending in
    let cap = if room < len.(i) - lo then lo + room else len.(i) in
    let hi =
      if !best_ts = !next_ts then lo + 1
      else if !next_ts = max_int then cap
      else gallop_hi a ~lo ~cap !next_ts
    in
    let hi = max hi (lo + 1) in
    Arena.append_range dests.(i) a ~lo ~hi;
    cursor.(i) <- hi;
    head_ts.(i) <- (if hi < len.(i) then Arena.ts a hi else max_int);
    remaining := !remaining - (hi - lo);
    t.pending <- t.pending + (hi - lo);
    if t.pending >= t.roll_records then begin
      flush t;
      Array.iteri (fun j a -> dests.(j) <- buffer_for t (Arena.host_sid a)) arenas
    end
  done

let close t =
  flush t;
  Manifest.save t.manifest ~dir:t.dir;
  t.stats
