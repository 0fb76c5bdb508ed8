module Arena = Trace.Arena
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
  dir : string option;  (* [None]: segments are held in memory *)
  policy : Policy.t;
  policy_str : string;
  reduce : Core.Correlator.config option;  (* set iff the policy reduces *)
  roll_records : int;
  telemetry : R.t;
  buffers : (int, Arena.t) Hashtbl.t;  (* host string id -> batch arena *)
  mutable pending : int;
  mutable manifest : Manifest.t;
  mutable saved : bool;  (* [manifest] is on disk; each flush saves what it adds *)
  mutable held : (Segment.meta * string) list;  (* newest first; in-memory writers only *)
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

let make ~telemetry ~policy ~reduce ~roll_records ~dir manifest =
  if roll_records <= 0 then invalid_arg "Writer: roll_records must be positive";
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
    saved = false;
    held = [];
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

let default_roll_records = 65536

let create ?(telemetry = R.default) ?(policy = Policy.none) ?correlate
    ?(roll_records = default_roll_records) ~dir () =
  let reduce =
    if Policy.is_none policy then None
    else if Option.is_none correlate then
      invalid_arg "Writer.create: a reduction policy needs a ~correlate config"
    else correlate
  in
  let t = make ~telemetry ~policy ~reduce ~roll_records ~dir:(Some dir) Manifest.empty in
  mkdir_p dir;
  if Manifest.exists ~dir then
    t.manifest <- (match Manifest.load ~dir with Ok m -> m | Error e -> failwith e);
  t

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
        let meta, data =
          Segment.encode_native ~id ~policy:t.policy_str ~raw_records ?raw_bytes kept
        in
        t.manifest <- Manifest.add t.manifest meta;
        (match t.dir with
        | Some dir ->
            Segment.write ~dir meta data;
            Manifest.save t.manifest ~dir;
            t.saved <- true
        | None -> t.held <- (meta, data) :: t.held);
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
   order ({!Arena.merge_runs}) — the same segment time-partitioning a
   live feed would produce — and cut each run at the roll boundary. A
   host's batch arena is looked up once per segment, when its first row
   lands, and forgotten at each flush. *)
let ingest_native t arenas =
  let arenas = Array.of_list (List.map Arena.sorted arenas) in
  let dests = Array.make (Array.length arenas) None in
  Arena.merge_runs arenas (fun h lo hi ->
      let src = arenas.(h) and lo = ref lo in
      while !lo < hi do
        let dest =
          match dests.(h) with
          | Some d -> d
          | None ->
              let d = buffer_for t (Arena.host_sid src) in
              dests.(h) <- Some d;
              d
        in
        let n = min (hi - !lo) (t.roll_records - t.pending) in
        Arena.append_range dest src ~lo:!lo ~hi:(!lo + n);
        lo := !lo + n;
        t.pending <- t.pending + n;
        if t.pending >= t.roll_records then begin
          flush t;
          Array.fill dests 0 (Array.length dests) None
        end
      done)

(* The manifest on disk is current once a flush has saved it; a run
   that wrote no segment still leaves one. *)
let close t =
  flush t;
  if not t.saved then Option.iter (fun dir -> Manifest.save t.manifest ~dir) t.dir;
  t.stats

let encode ?(roll_records = default_roll_records) arenas =
  let t =
    make ~telemetry:(R.create ()) ~policy:Policy.none ~reduce:None ~roll_records ~dir:None
      Manifest.empty
  in
  ingest_native t arenas;
  flush t;
  (t.manifest, List.rev t.held)
