module R = Telemetry.Registry

type stats = {
  segments_before : int;
  segments_after : int;
  retired : int;
  merged : int;
  merge_segments : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "%d -> %d segments (%d retired, %d merged into %d)" s.segments_before
    s.segments_after s.retired s.merged s.merge_segments

let remove_file dir (m : Segment.meta) =
  try Sys.remove (Filename.concat dir m.Segment.file) with Sys_error _ -> ()

(* Runs of >= 2 consecutive (in time order) segments all under the
   threshold; big segments break runs. Returns only the runs to merge —
   everything else stays in the manifest untouched. *)
let merge_runs ~min_records segments =
  let runs = ref [] and current = ref [] in
  let close_run () =
    (match !current with [] | [ _ ] -> () | many -> runs := List.rev many :: !runs);
    current := []
  in
  List.iter
    (fun (m : Segment.meta) ->
      if m.Segment.records < min_records then current := m :: !current else close_run ())
    segments;
  close_run ();
  List.rev !runs

let join_policies (sources : Segment.meta list) =
  List.map (fun (m : Segment.meta) -> m.Segment.policy) sources
  |> List.sort_uniq String.compare
  |> String.concat "|"

let run ?(telemetry = R.default) ?(min_records = 8192) ?retain_ns ~dir () =
  match Manifest.load ~dir with
  | Error e -> Error e
  | Ok manifest -> (
      let segments_before = List.length manifest.Manifest.segments in
      (* Retention: keep segments overlapping the trailing window. *)
      let live, retired_segments =
        match retain_ns with
        | None -> (manifest.Manifest.segments, [])
        | Some retain ->
            let newest =
              List.fold_left
                (fun acc (m : Segment.meta) -> max acc m.Segment.max_ts_ns)
                min_int manifest.Manifest.segments
            in
            let cutoff = newest - retain in
            List.partition
              (fun (m : Segment.meta) -> m.Segment.max_ts_ns >= cutoff)
              manifest.Manifest.segments
      in
      let by_time =
        List.sort
          (fun (a : Segment.meta) (b : Segment.meta) ->
            compare (a.Segment.min_ts_ns, a.id) (b.Segment.min_ts_ns, b.id))
          live
      in
      let runs = merge_runs ~min_records by_time in
      (* A file goes only once a saved manifest no longer names it, so a
         failure part-way (an unreadable segment in a later run) leaves a
         store whose manifest names exactly the files on disk. *)
      let commit manifest gone =
        Manifest.save manifest ~dir;
        List.iter (remove_file dir) gone
      in
      let manifest =
        Manifest.remove manifest
          ~ids:(List.map (fun (m : Segment.meta) -> m.Segment.id) retired_segments)
      in
      if retired_segments <> [] then commit manifest retired_segments;
      let rec merge_all manifest written = function
        | [] -> Ok (manifest, written)
        | sources :: rest -> (
            let rec read_all acc = function
              | [] -> Ok (List.rev acc)
              | (m : Segment.meta) :: tl -> (
                  match Segment.read_native ~dir m with
                  | Ok c -> read_all (c :: acc) tl
                  | Error e -> Error e)
            in
            match read_all [] sources with
            | Error e -> Error e
            | Ok collections ->
                let merged_collection = Query.merge_native collections in
                let raw_records =
                  List.fold_left
                    (fun acc (m : Segment.meta) -> acc + m.Segment.raw_records)
                    0 sources
                in
                let raw_bytes =
                  List.fold_left
                    (fun acc (m : Segment.meta) -> acc + m.Segment.raw_bytes)
                    0 sources
                in
                let meta =
                  Segment.write_native ~dir ~id:manifest.Manifest.next_id
                    ~policy:(join_policies sources) ~raw_records ~raw_bytes
                    merged_collection
                in
                let manifest =
                  Manifest.add
                    (Manifest.remove manifest
                       ~ids:(List.map (fun (m : Segment.meta) -> m.Segment.id) sources))
                    meta
                in
                commit manifest sources;
                merge_all manifest (written + 1) rest)
      in
      match merge_all manifest 0 runs with
      | Error e -> Error e
      | Ok (manifest, merge_segments) ->
          let merged = List.fold_left (fun acc run -> acc + List.length run) 0 runs in
          let stats =
            {
              segments_before;
              segments_after = List.length manifest.Manifest.segments;
              retired = List.length retired_segments;
              merged;
              merge_segments;
            }
          in
          R.add
            (R.counter telemetry ~help:"Segments deleted by retention"
               "pt_store_compact_retired_total")
            stats.retired;
          R.add
            (R.counter telemetry ~help:"Small segments folded into merge results"
               "pt_store_compact_merged_total")
            stats.merged;
          Ok stats)
