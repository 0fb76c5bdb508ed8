module R = Telemetry.Registry

type predicate = {
  since_ns : int option;
  until_ns : int option;
  hosts : string list option;
}

let all = { since_ns = None; until_ns = None; hosts = None }
let predicate ?since_ns ?until_ns ?hosts () = { since_ns; until_ns; hosts }

type stats = {
  segments_total : int;
  segments_scanned : int;
  records_scanned : int;
  records_returned : int;
  seconds : float;
}

let pp_stats ppf s =
  Format.fprintf ppf "%d/%d segments scanned, %d/%d records returned in %.4f s"
    s.segments_scanned s.segments_total s.records_returned s.records_scanned s.seconds

let host_wanted predicate host =
  match predicate.hosts with None -> true | Some hs -> List.mem host hs

let select manifest predicate =
  List.filter
    (fun (m : Segment.meta) ->
      Segment.overlaps m ~since_ns:predicate.since_ns ~until_ns:predicate.until_ns
      && List.exists (host_wanted predicate) m.Segment.hosts)
    manifest.Manifest.segments

(* The one canonical merge: logs of one hostname across segments
   concatenate by integer row blits into one arena per host, in segment
   order, then one stable sort per host — rows tied on (timestamp,
   context, kind) keep their segment order. A host with no rows gets no
   arena. *)
let merge_native (collections : Trace.Arena.t list list) =
  let by_host : (int, Trace.Arena.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun arenas ->
      List.iter
        (fun src ->
          let acc =
            match Hashtbl.find_opt by_host (Trace.Arena.host_sid src) with
            | Some acc -> acc
            | None ->
                let acc =
                  Trace.Arena.create_sid
                    ~capacity:(max 64 (Trace.Arena.length src))
                    (Trace.Arena.host_sid src)
                in
                Hashtbl.replace by_host (Trace.Arena.host_sid src) acc;
                acc
          in
          Trace.Arena.append_range acc src ~lo:0 ~hi:(Trace.Arena.length src))
        (List.filter (fun a -> Trace.Arena.length a > 0) arenas))
    collections;
  let arenas = Hashtbl.fold (fun _ a acc -> a :: acc) by_host [] in
  List.iter Trace.Arena.sort_by_time arenas;
  List.sort
    (fun a b -> String.compare (Trace.Arena.hostname a) (Trace.Arena.hostname b))
    arenas

let ts_matches predicate ts =
  (match predicate.since_ns with Some s -> ts >= s | None -> true)
  && match predicate.until_ns with Some u -> ts <= u | None -> true

let record_query_telemetry telemetry stats =
  Telemetry.Histogram.observe
    (R.histogram telemetry ~help:"Store query wall time, seconds" "pt_store_query_seconds")
    stats.seconds;
  R.add
    (R.counter telemetry ~help:"Segments decoded by store queries"
       "pt_store_query_segments_scanned_total")
    stats.segments_scanned;
  R.add
    (R.counter telemetry ~help:"Segments skipped via the manifest index"
       "pt_store_query_segments_pruned_total")
    (stats.segments_total - stats.segments_scanned);
  R.add
    (R.counter telemetry ~help:"Records returned by store queries"
       "pt_store_query_records_returned_total")
    stats.records_returned

(* Decode the selected segments (in parallel when there are several and
   more than one worker), surfacing the first error in manifest order so
   a failing query reports the same segment at any [jobs]. *)
let decode_selected ?jobs ~read metas =
  let n = Array.length metas in
  let jobs = Option.value jobs ~default:(Parallel.Pool.default_jobs ()) in
  let decoded =
    if n <= 1 || jobs <= 1 then Array.map (fun m -> read m) metas
    else Parallel.Pool.with_pool ~jobs (fun p -> Parallel.Pool.map p ~n (fun i -> read metas.(i)))
  in
  let rec collect acc i =
    if i >= n then Ok (List.rev acc)
    else
      match decoded.(i) with
      | Ok collection -> collect (collection :: acc) (i + 1)
      | Error e -> Error e
  in
  collect [] 0

let run_native_with ?(telemetry = R.default) ?jobs ~read manifest predicate =
  let t0 = Unix.gettimeofday () in
  let selected = select manifest predicate in
  match decode_selected ?jobs ~read (Array.of_list selected) with
  | Error e -> Error e
  | Ok collections ->
      let records_scanned =
        List.fold_left (fun acc c -> acc + Trace.Arena.total c) 0 collections
      in
      let result =
        merge_native collections
        |> List.filter_map (fun arena ->
               if not (host_wanted predicate (Trace.Arena.hostname arena)) then None
               else begin
                 let kept =
                   Trace.Arena.create_sid
                     ~capacity:(max 1 (Trace.Arena.length arena))
                     (Trace.Arena.host_sid arena)
                 in
                 for i = 0 to Trace.Arena.length arena - 1 do
                   if ts_matches predicate (Trace.Arena.ts arena i) then
                     Trace.Arena.append_row kept arena i
                 done;
                 if Trace.Arena.length kept = 0 then None else Some kept
               end)
      in
      let seconds = Unix.gettimeofday () -. t0 in
      let stats =
        {
          segments_total = List.length manifest.Manifest.segments;
          segments_scanned = List.length selected;
          records_scanned;
          records_returned = Trace.Arena.total result;
          seconds;
        }
      in
      record_query_telemetry telemetry stats;
      Ok (result, stats)

let run_native ?telemetry ?jobs ~dir predicate =
  match Manifest.load ~dir with
  | Error e -> Error e
  | Ok manifest ->
      run_native_with ?telemetry ?jobs
        ~read:(fun m -> Segment.read_native ~dir m)
        manifest predicate
