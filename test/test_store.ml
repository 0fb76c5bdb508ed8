(* Tests for lib/store: segments, manifest, reduction policies, writer,
   query, compaction — including the two acceptance criteria of the
   subsystem: store round-trip reproduces identical CAGs when reduction is
   off, and request-level sampling at >=4x byte reduction preserves the
   top-3 pattern frequency ranks. *)

module H = Test_helpers.Helpers
module S = Tiersim.Scenario
module Activity = Trace.Activity
module Log = Trace.Log
module Correlator = Core.Correlator
module Pattern = Core.Pattern

let temp_dir () =
  let dir = Filename.temp_file "pt-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* One memoised mid-size three-tier run shared by the tests. *)
let outcome =
  lazy (S.run { S.default with S.clients = 150; time_scale = 0.05; seed = 11 })

let correlate_cfg () =
  let o = Lazy.force outcome in
  Correlator.config ~transform:o.S.transform ()

(* Record-list edges onto the native segment codec, writer and query. *)
let write_segment ~dir ~id ~policy collection =
  Store.Segment.write_native ~dir ~id ~policy (Trace.Arena.of_collection collection)

let read_segment ~dir meta =
  Result.map Trace.Arena.to_collection (Store.Segment.read_native ~dir meta)

let ingest writer collection =
  Store.Writer.ingest_native writer (Trace.Arena.of_collection collection)

let query ~dir predicate =
  Result.map
    (fun (arenas, stats) -> (Trace.Arena.to_collection arenas, stats))
    (Store.Query.run_native ~dir predicate)

let collection_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         String.equal (Log.hostname x) (Log.hostname y)
         && Log.length x = Log.length y
         && List.for_all2 Activity.equal (Log.to_list x) (Log.to_list y))
       a b

(* ---- policy ---- *)

let test_policy_roundtrip () =
  List.iter
    (fun s ->
      match Store.Policy.of_string s with
      | Error e -> Alcotest.failf "%S rejected: %s" s e
      | Ok p -> Alcotest.(check string) s s (Store.Policy.to_string p))
    [
      "none";
      "causal";
      "head=100";
      "sample=0.25@7";
      "budget=1000@1";
      "drop=rlogin+sshd";
      "causal,sample=0.5@1";
      "drop=mysql,causal,head=10";
    ]

let test_policy_errors () =
  List.iter
    (fun s ->
      match Store.Policy.of_string s with
      | Ok p -> Alcotest.failf "%S accepted as %s" s (Store.Policy.to_string p)
      | Error _ -> ())
    [ "nope"; "sample=2.0"; "sample=x"; "head=-1"; "head=1,sample=0.5"; "budget=0" ]

let test_policy_defaults () =
  Alcotest.(check bool) "none is none" true (Store.Policy.is_none Store.Policy.none);
  match Store.Policy.of_string "sample=0.5" with
  | Ok { Store.Policy.sampling = Store.Policy.Probabilistic { seed; _ }; _ } ->
      Alcotest.(check int) "default seed" 1 seed
  | Ok _ | Error _ -> Alcotest.fail "sample=0.5 should parse with default seed"

(* ---- segment ---- *)

let test_segment_roundtrip () =
  with_dir @@ fun dir ->
  let collection = (Lazy.force outcome).S.logs in
  let meta = write_segment ~dir ~id:3 ~policy:"none" collection in
  Alcotest.(check int) "id" 3 meta.Store.Segment.id;
  Alcotest.(check string) "file" "seg-000003.pts" meta.file;
  Alcotest.(check int) "records" (Log.total collection) meta.records;
  Alcotest.(check (list string)) "hosts sorted"
    (List.sort String.compare (List.map Log.hostname collection))
    meta.hosts;
  let all_ts =
    List.concat_map Log.to_list collection
    |> List.map (fun a -> Simnet.Sim_time.to_ns a.Activity.timestamp)
  in
  Alcotest.(check int) "min ts" (List.fold_left min max_int all_ts) meta.min_ts_ns;
  Alcotest.(check int) "max ts" (List.fold_left max min_int all_ts) meta.max_ts_ns;
  (* Header alone (read_meta) agrees with the write-time meta. *)
  (match Store.Segment.read_meta ~path:(Filename.concat dir meta.file) with
  | Ok m -> Alcotest.(check int) "header records" meta.records m.Store.Segment.records
  | Error e -> Alcotest.fail e);
  match read_segment ~dir meta with
  | Ok loaded -> Alcotest.(check bool) "payload identical" true (collection_equal collection loaded)
  | Error e -> Alcotest.fail e

(* Every prefix of a small segment and every header byte XOR 0x01, 0x80
   and 0xff: each decodes to an error or to the identical rows, and none
   raises. A prefix is always an error, and names an offset. *)
let test_segment_rejects_corruption () =
  with_dir @@ fun dir ->
  let meta = write_segment ~dir ~id:0 ~policy:"none" (H.logs_of_request ()) in
  let path = Filename.concat dir meta.Store.Segment.file in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let expected = Result.get_ok (read_segment ~dir meta) in
  let decode what bytes =
    match
      Store.Segment.read_embedded_native ~data:bytes ~pos:0 ~len:(String.length bytes) ~what meta
    with
    | Ok arenas ->
        if not (collection_equal expected (Trace.Arena.to_collection arenas)) then
          Alcotest.failf "%s: decoded different rows" what;
        None
    | Error e -> Some e
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  for len = 0 to String.length data - 1 do
    match decode (Printf.sprintf "prefix %d" len) (String.sub data 0 len) with
    | None -> Alcotest.failf "prefix of %d bytes accepted" len
    | Some e ->
        if not (H.contains e "offset") then Alcotest.failf "prefix of %d: %S names no offset" len e
  done;
  let header_end = 8 + Int32.to_int (String.get_int32_be data 4) in
  for i = 0 to header_end - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string data in
        Bytes.set b i (Char.chr (Char.code data.[i] lxor mask));
        ignore (decode (Printf.sprintf "byte %d xor %#x" i mask) (Bytes.to_string b)))
      [ 0x01; 0x80; 0xff ]
  done;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data - 3)));
  (match read_segment ~dir meta with
  | Ok _ -> Alcotest.fail "truncated segment accepted"
  | Error _ -> ());
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "XXXX");
  match read_segment ~dir meta with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ()

(* ---- manifest ---- *)

let test_manifest_roundtrip () =
  with_dir @@ fun dir ->
  let m0 = Store.Manifest.empty in
  let meta1 = write_segment ~dir ~id:0 ~policy:"none" (H.logs_of_request ()) in
  let meta2 = write_segment ~dir ~id:1 ~policy:"causal" (H.logs_of_request ()) in
  let m = Store.Manifest.add (Store.Manifest.add m0 meta1) meta2 in
  Alcotest.(check int) "next id" 2 m.Store.Manifest.next_id;
  Store.Manifest.save m ~dir;
  (match Store.Manifest.load ~dir with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check int) "segments" 2 (List.length loaded.Store.Manifest.segments);
      Alcotest.(check int) "records"
        (Store.Manifest.total_records m)
        (Store.Manifest.total_records loaded));
  (* A rebuilt manifest (from segment headers) agrees on the totals. *)
  match Store.Manifest.rebuild ~dir with
  | Error e -> Alcotest.fail e
  | Ok rebuilt ->
      Alcotest.(check int) "rebuilt records"
        (Store.Manifest.total_records m)
        (Store.Manifest.total_records rebuilt);
      Alcotest.(check int) "rebuilt next id" 2 rebuilt.Store.Manifest.next_id

let test_manifest_corrupt () =
  with_dir @@ fun dir ->
  Out_channel.with_open_bin
    (Filename.concat dir Store.Manifest.file)
    (fun oc -> Out_channel.output_string oc "{not json");
  match Store.Manifest.load ~dir with
  | Ok _ -> Alcotest.fail "corrupt manifest accepted"
  | Error _ -> ()

(* ---- writer ---- *)

let test_writer_rolls_segments () =
  with_dir @@ fun dir ->
  let collection = (Lazy.force outcome).S.logs in
  let writer = Store.Writer.create ~roll_records:500 ~dir () in
  ingest writer collection;
  let stats = Store.Writer.close writer in
  Alcotest.(check bool)
    (Printf.sprintf "%d segments from %d records" stats.Store.Writer.segments
       stats.records_in)
    true
    (stats.Store.Writer.segments >= stats.records_in / 500);
  Alcotest.(check int) "nothing dropped without a policy" stats.records_in stats.records_out;
  match Store.Manifest.load ~dir with
  | Ok m -> Alcotest.(check int) "manifest agrees" stats.records_out (Store.Manifest.total_records m)
  | Error e -> Alcotest.fail e

(* Every segment saves the manifest, so [close] after a flush leaves the
   file alone (a save renames a fresh temp file over it, which would give
   it a new inode); a writer that wrote no segment still leaves one. *)
let test_writer_saves_manifest_once () =
  with_dir @@ fun dir ->
  let writer = Store.Writer.create ~roll_records:500 ~dir () in
  ingest writer (Lazy.force outcome).S.logs;
  Store.Writer.flush writer;
  let inode () = (Unix.stat (Filename.concat dir Store.Manifest.file)).Unix.st_ino in
  let flushed = inode () in
  let stats = Store.Writer.close writer in
  Alcotest.(check int) "close does not save it again" flushed (inode ());
  (match Store.Manifest.load ~dir with
  | Ok m ->
      Alcotest.(check int)
        "every segment listed" stats.Store.Writer.segments
        (List.length m.Store.Manifest.segments)
  | Error e -> Alcotest.fail e);
  with_dir @@ fun empty ->
  ignore (Store.Writer.close (Store.Writer.create ~dir:empty ()));
  match Store.Manifest.load ~dir:empty with
  | Ok m ->
      Alcotest.(check int)
        "an empty store has its manifest" 0
        (List.length m.Store.Manifest.segments)
  | Error e -> Alcotest.fail e

(* A segment lists the hosts with rows in it and no other: on mesh
   control (16 clients x 20 requests, seed 7) at roll 1000, db1 is idle
   for a whole segment, which must then carry no db1 host table. *)
let test_writer_lists_only_hosts_with_rows () =
  with_dir @@ fun dir ->
  let spec = Option.get (Mesh.Presets.spec_of ~seed:7 "control") in
  let b = Mesh.Runtime.build { spec with Mesh.Spec.clients = 16; requests_per_client = 20 } in
  Simnet.Engine.run b.Mesh.Runtime.engine;
  let writer = Store.Writer.create ~roll_records:1000 ~dir () in
  ingest writer (Trace.Probe.logs b.Mesh.Runtime.probe);
  ignore (Store.Writer.close writer);
  let manifest = Result.get_ok (Store.Manifest.load ~dir) in
  List.iter
    (fun (m : Store.Segment.meta) ->
      let arenas = Result.get_ok (Store.Segment.read_native ~dir m) in
      let what = Printf.sprintf "segment %d" m.Store.Segment.id in
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s has rows" what (Trace.Arena.hostname a))
            true
            (Trace.Arena.length a > 0))
        arenas;
      Alcotest.(check (list string))
        (what ^ ": hosts") m.Store.Segment.hosts
        (List.map Trace.Arena.hostname arenas))
    manifest.Store.Manifest.segments

let read_file p = In_channel.with_open_bin p In_channel.input_all

let store_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let test_ingest_native_unsorted_matches_sorted () =
  (* [ingest_native] must produce a byte-identical store whether its
     arenas arrive sorted or not (unsorted inputs are sorted on a copy).
     Globally unique timestamps keep the expected order total. *)
  let acts host n offset =
    List.init n (fun i ->
        H.act
          ~kind:(if i mod 2 = 0 then Activity.Send else Activity.Receive)
          ~ts:((i * 2) + offset)
          ~ctx:(H.ctx ~host ~program:"p" ~pid:7 ~tid:(100 + (i mod 3)) ())
          ~flow:(H.flow "10.0.1.1" (4000 + (i mod 5)) "10.0.2.1" 8009)
          ~size:(1 + i))
  in
  let web = acts "web" 40 0 and app = acts "app" 40 1 in
  let collection =
    [ Log.of_list ~hostname:"web" web; Log.of_list ~hostname:"app" app ]
  in
  let write_with dir feed =
    let writer = Store.Writer.create ~roll_records:16 ~dir () in
    feed writer;
    ignore (Store.Writer.close writer)
  in
  with_dir @@ fun dir1 ->
  with_dir @@ fun dir2 ->
  write_with dir1 (fun w -> ingest w collection);
  write_with dir2 (fun w ->
      let unsorted =
        List.map
          (fun (host, l) ->
            let a = Trace.Arena.create ~host () in
            List.iter (Trace.Arena.append_activity a) (List.rev l);
            a)
          [ ("web", web); ("app", app) ]
      in
      Store.Writer.ingest_native w unsorted);
  let files1 = store_files dir1 and files2 = store_files dir2 in
  Alcotest.(check (list string)) "same files" (List.map fst files1) (List.map fst files2);
  List.iter2
    (fun (name, b1) (_, b2) ->
      Alcotest.(check bool) (Printf.sprintf "%s byte-identical" name) true (String.equal b1 b2))
    files1 files2;
  match query ~dir:dir2 Store.Query.all with
  | Error e -> Alcotest.fail e
  | Ok (loaded, _) ->
      let by_host =
        List.sort (fun a b -> String.compare (Log.hostname a) (Log.hostname b))
      in
      Alcotest.(check bool) "query returns the sorted records" true
        (collection_equal (by_host collection) (by_host loaded))

(* The query over the records themselves: the predicate applied to each
   host log, hosts in name order, empty ones left out. *)
let record_query collection (p : Store.Query.predicate) =
  let keep (a : Activity.t) =
    let ts = Simnet.Sim_time.to_ns a.timestamp in
    Option.fold ~none:true ~some:(fun s -> ts >= s) p.since_ns
    && Option.fold ~none:true ~some:(fun u -> ts <= u) p.until_ns
  in
  List.filter_map
    (fun log ->
      let hostname = Log.hostname log in
      let kept = List.filter keep (Log.to_list log) in
      if kept = [] || not (Option.fold ~none:true ~some:(List.mem hostname) p.hosts) then None
      else Some (Log.of_list ~hostname kept))
    (List.sort (fun a b -> String.compare (Log.hostname a) (Log.hostname b)) collection)

let test_query_native_matches_record_query () =
  with_dir @@ fun dir ->
  let collection = (Lazy.force outcome).S.logs in
  let writer = Store.Writer.create ~roll_records:700 ~dir () in
  ingest writer collection;
  ignore (Store.Writer.close writer);
  let manifest = Result.get_ok (Store.Manifest.load ~dir) in
  List.iter
    (fun predicate ->
      match Store.Query.run_native ~dir predicate with
      | Ok (arenas, stats) ->
          Alcotest.(check bool) "same collection" true
            (collection_equal (record_query collection predicate)
               (Trace.Arena.to_collection arenas));
          Alcotest.(check int) "scans the selected segments"
            (List.length (Store.Query.select manifest predicate))
            stats.Store.Query.segments_scanned
      | Error e -> Alcotest.fail e)
    [
      Store.Query.predicate ~hosts:[ "web"; "db1" ] ();
      Store.Query.predicate ~since_ns:3_000_000_000 ~until_ns:4_000_000_000 ~hosts:[ "app1" ] ();
    ]

let test_writer_requires_correlate () =
  with_dir @@ fun dir ->
  let policy =
    match Store.Policy.of_string "causal" with Ok p -> p | Error e -> failwith e
  in
  match Store.Writer.create ~policy ~dir () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reduction without a correlator config accepted"

(* ---- acceptance: round-trip fidelity (reduction off) ---- *)

let test_roundtrip_fidelity () =
  with_dir @@ fun dir ->
  let o = Lazy.force outcome in
  let cfg = correlate_cfg () in
  let writer = Store.Writer.create ~roll_records:1000 ~dir () in
  ingest writer o.S.logs;
  ignore (Store.Writer.close writer);
  match query ~dir Store.Query.all with
  | Error e -> Alcotest.fail e
  | Ok (loaded, _) ->
      Alcotest.(check bool) "activities identical" true (collection_equal o.S.logs loaded);
      let direct = Correlator.correlate cfg o.S.logs in
      let from_store = Correlator.correlate cfg loaded in
      Alcotest.(check int) "same path count"
        (List.length direct.Correlator.cags)
        (List.length from_store.Correlator.cags);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "same signature" (Pattern.signature_of a)
            (Pattern.signature_of b);
          List.iter2
            (fun (va : Core.Cag.vertex) (vb : Core.Cag.vertex) ->
              Alcotest.(check bool) "same vertex activity" true
                (Activity.equal va.Core.Cag.activity vb.Core.Cag.activity))
            (Core.Cag.vertices a) (Core.Cag.vertices b))
        direct.Correlator.cags from_store.Correlator.cags;
      let verdict =
        Core.Accuracy.check ~ground_truth:o.S.ground_truth from_store.Correlator.cags
      in
      Alcotest.(check bool) "accuracy 100%" true (verdict.Core.Accuracy.accuracy >= 1.0)

(* ---- acceptance: reduction fidelity ---- *)

let top_names n patterns =
  List.filteri (fun i _ -> i < n) patterns |> List.map (fun p -> p.Pattern.name)

let policy_of s = match Store.Policy.of_string s with Ok p -> p | Error e -> failwith e

let reduce policy =
  let o = Lazy.force outcome in
  let reduced, stats =
    Store.Reduce.apply ~correlate:(correlate_cfg ()) ~policy:(policy_of policy)
      (Trace.Arena.of_collection o.S.logs)
  in
  (Trace.Arena.to_collection reduced, stats)

(* A path as the store promises to keep it: each vertex's kind, host,
   timestamp and size, in causal order. *)
let fingerprint cag =
  List.map
    (fun (v : Core.Cag.vertex) ->
      let a = v.Core.Cag.activity in
      ( Activity.kind_to_code a.Activity.kind,
        a.Activity.context.Activity.host,
        Simnet.Sim_time.to_ns a.Activity.timestamp,
        a.Activity.message.size ))
    (Core.Cag.vertices cag)

let originals =
  lazy
    (let baseline = Correlator.correlate (correlate_cfg ()) (Lazy.force outcome).S.logs in
     let seen = Hashtbl.create 1024 in
     List.iter (fun c -> Hashtbl.replace seen (fingerprint c) ()) baseline.Correlator.cags;
     seen)

(* How many of the paths [result] found are identical to a path of the
   unreduced run. *)
let paths_identical result =
  let seen = Lazy.force originals in
  List.length (List.filter (fun c -> Hashtbl.mem seen (fingerprint c)) result.Correlator.cags)

(* The sampling grid of the bench's reduction figure (ext-9c). *)
let sampling_grid = [ "causal,sample=0.5@1"; "causal,sample=0.25@1"; "causal,sample=0.1@1" ]

let test_reduction_fidelity () =
  let o = Lazy.force outcome in
  let cfg = correlate_cfg () in
  let baseline = Correlator.correlate cfg o.S.logs in
  (* The noise-free run is all causal: [causal] drops nothing. *)
  let lossless, causal = reduce "causal" in
  Alcotest.(check int) "causal keeps every row" (Log.total o.S.logs) (Log.total lossless);
  Alcotest.(check int) "causal keeps every byte" causal.Store.Reduce.bytes_before
    causal.Store.Reduce.bytes_after;
  Alcotest.(check string) "causal re-correlates to the same digest"
    (Core.Shard.digest baseline)
    (Core.Shard.digest (Correlator.correlate cfg lossless));
  let reduced, stats = reduce "causal,sample=0.25@3" in
  let ratio = Store.Reduce.ratio stats in
  Alcotest.(check bool)
    (Printf.sprintf "byte reduction %.1fx >= 4x" ratio)
    true (ratio >= 4.0);
  let result = Correlator.correlate cfg reduced in
  Alcotest.(check int) "every kept request is an identical path" stats.Store.Reduce.requests_kept
    (paths_identical result);
  let top3 (r : Correlator.result) = top_names 3 (Pattern.classify r.Correlator.cags) in
  Alcotest.(check (list string)) "top-3 pattern ranks unchanged" (top3 baseline) (top3 result);
  List.iter
    (fun policy ->
      let reduced, _ = reduce policy in
      Alcotest.(check (list string))
        (policy ^ ": top-3 pattern ranks unchanged")
        (top3 baseline)
        (top3 (Correlator.correlate cfg reduced)))
    sampling_grid

let test_reduction_keeps_whole_requests () =
  let o = Lazy.force outcome in
  let cfg = correlate_cfg () in
  (* Attribution rests on provenance: every vertex of a native path names
     its raw rows, and no row belongs to two requests. *)
  let native = Correlator.correlate_arena cfg (Trace.Arena.of_collection o.S.logs) in
  let owned = Hashtbl.create 4096 in
  List.iter
    (fun cag ->
      List.iter
        (fun v ->
          let sources = Core.Cag.sources v in
          if sources = [] then Alcotest.fail "vertex without a source row";
          List.iter
            (fun s ->
              if Hashtbl.mem owned s then Alcotest.fail "row owned by two requests";
              Hashtbl.replace owned s ())
            sources)
        (Core.Cag.vertices cag))
    (native.Correlator.cags @ native.Correlator.deformed);
  (* Whole causal paths survive or vanish: no orphaned halves, so the
     reduced trace correlates with zero deformed CAGs and every kept
     request comes back as its original path. *)
  List.iter
    (fun policy ->
      let reduced, stats = reduce policy in
      let result = Correlator.correlate cfg reduced in
      let kept = stats.Store.Reduce.requests_kept in
      Alcotest.(check int) (policy ^ ": no deformed paths") 0
        (List.length result.Correlator.deformed);
      Alcotest.(check int) (policy ^ ": kept requests = paths") kept
        (List.length result.Correlator.cags);
      Alcotest.(check int) (policy ^ ": kept requests = identical paths") kept
        (paths_identical result))
    ("causal,sample=0.5@2" :: sampling_grid)

let test_reduction_deterministic () =
  let r1, s1 = reduce "sample=0.3@9" in
  let r2, s2 = reduce "sample=0.3@9" in
  Alcotest.(check int) "same kept" s1.Store.Reduce.requests_kept s2.Store.Reduce.requests_kept;
  Alcotest.(check bool) "same survivors" true (collection_equal r1 r2);
  let result = Correlator.correlate (correlate_cfg ()) r1 in
  Alcotest.(check int) "no deformed paths" 0 (List.length result.Correlator.deformed);
  Alcotest.(check int) "kept requests = identical paths" s1.Store.Reduce.requests_kept
    (paths_identical result)

let test_reduction_head_and_boundaries () =
  let _, head = reduce "head=10" in
  Alcotest.(check int) "head keeps 10" 10 head.Store.Reduce.requests_kept;
  let _, none_kept = reduce "sample=0.0@1" in
  Alcotest.(check int) "p=0 keeps none" 0 none_kept.Store.Reduce.requests_kept;
  let _, all_kept = reduce "sample=1.0@1" in
  Alcotest.(check int) "p=1 keeps all" all_kept.Store.Reduce.requests_total
    all_kept.Store.Reduce.requests_kept

(* ---- query ---- *)

let store_of_run dir =
  let o = Lazy.force outcome in
  let writer = Store.Writer.create ~roll_records:1000 ~dir () in
  ingest writer o.S.logs;
  ignore (Store.Writer.close writer)

let test_query_prunes_segments () =
  with_dir @@ fun dir ->
  store_of_run dir;
  let m = match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e in
  let min_ts, max_ts =
    List.fold_left
      (fun (lo, hi) (s : Store.Segment.meta) ->
        (min lo s.Store.Segment.min_ts_ns, max hi s.Store.Segment.max_ts_ns))
      (max_int, min_int) m.Store.Manifest.segments
  in
  let span = max_ts - min_ts in
  let narrow =
    Store.Query.predicate
      ~since_ns:(min_ts + (span * 45 / 100))
      ~until_ns:(min_ts + (span * 55 / 100))
      ()
  in
  match query ~dir narrow with
  | Error e -> Alcotest.fail e
  | Ok (logs, stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "scanned %d < total %d" stats.Store.Query.segments_scanned
           stats.segments_total)
        true
        (stats.Store.Query.segments_scanned < stats.segments_total);
      List.iter
        (fun log ->
          List.iter
            (fun a ->
              let ts = Simnet.Sim_time.to_ns a.Activity.timestamp in
              Alcotest.(check bool) "within window" true
                (ts >= min_ts + (span * 45 / 100) && ts <= min_ts + (span * 55 / 100)))
            (Log.to_list log))
        logs

let test_query_boundary_inclusive () =
  with_dir @@ fun dir ->
  (* Two segments meeting exactly at t = 200ns: the last record of the
     first and the first record of the second carry the boundary
     timestamp. Segment pruning and record filtering are both
     inclusive-inclusive, so the degenerate window [200, 200] must scan
     both segments and return the record from each side. *)
  let mk ts = H.act ~kind:Activity.Send ~ts ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:10 in
  let seg_a = [ Log.of_list ~hostname:"web" [ mk 100; mk 200 ] ] in
  let seg_b = [ Log.of_list ~hostname:"web" [ mk 200; mk 300 ] ] in
  let meta_a = write_segment ~dir ~id:0 ~policy:"none" seg_a in
  let meta_b = write_segment ~dir ~id:1 ~policy:"none" seg_b in
  Store.Manifest.save
    (Store.Manifest.add (Store.Manifest.add Store.Manifest.empty meta_a) meta_b)
    ~dir;
  match query ~dir (Store.Query.predicate ~since_ns:200 ~until_ns:200 ()) with
  | Error e -> Alcotest.fail e
  | Ok (logs, stats) ->
      Alcotest.(check int) "both segments scanned" 2 stats.Store.Query.segments_scanned;
      let records = List.concat_map Log.to_list logs in
      Alcotest.(check int) "one record from each side" 2 (List.length records);
      List.iter
        (fun a ->
          Alcotest.(check int) "exactly on the boundary" 200
            (Simnet.Sim_time.to_ns a.Activity.timestamp))
        records

let test_query_host_filter () =
  with_dir @@ fun dir ->
  store_of_run dir;
  match query ~dir (Store.Query.predicate ~hosts:[ "db1" ] ()) with
  | Error e -> Alcotest.fail e
  | Ok (logs, _) ->
      Alcotest.(check (list string)) "only db1" [ "db1" ] (List.map Log.hostname logs);
      Alcotest.(check bool) "non-empty" true (Log.total logs > 0)

(* ---- merge order ---- *)

let merge segments =
  Trace.Arena.to_collection
    (Store.Query.merge_native (List.map Trace.Arena.of_collection segments))

(* Rows tied on (timestamp, context, kind) that differ only in flow: the
   merge must keep them in segment order, not reverse them. *)
let test_merge_keeps_tied_rows () =
  let row port =
    let flow = H.flow "10.0.2.1" port "10.0.3.1" 3306 in
    H.act ~kind:Activity.Send ~ts:1_000 ~ctx:H.app_ctx ~flow ~size:300
  in
  let tied = List.map row [ 42001; 42002; 42003 ] in
  let later =
    H.act ~kind:Activity.Receive ~ts:2_000 ~ctx:H.app_ctx ~flow:H.db_app_flow ~size:1500
  in
  let log = Log.of_list ~hostname:"app" (tied @ [ later ]) in
  Alcotest.(check bool) "one segment unchanged" true
    (collection_equal [ log ] (merge [ [ log ] ]));
  let first = Log.of_list ~hostname:"app" tied in
  let second = Log.of_list ~hostname:"app" [ row 42004; later ] in
  let expected = Log.of_list ~hostname:"app" (tied @ [ row 42004; later ]) in
  Alcotest.(check bool) "segment order kept across segments" true
    (collection_equal [ expected ] (merge [ [ first ]; [ second ] ]))

(* Random multi-segment inputs drawn from tiny attribute pools, so rows
   tie on (timestamp, context, kind) often. The merge and the
   specification — per host, concatenate in segment order and
   stable-sort by time; a host with no rows is left out — agree row for
   row. *)
let gen_segments =
  let open QCheck.Gen in
  let host = oneofl [ "h0"; "h1"; "h2" ] in
  let activity =
    map
      (fun (ts, (pid, kind), (port, size)) ->
        H.act ~kind ~ts ~ctx:(H.ctx ~host:"h0" ~pid ()) ~flow:(H.flow "10.0.0.1" port "10.0.0.2" 80)
          ~size)
      (triple (int_range 0 4)
         (pair (int_range 1 2) (oneofl Activity.[ Send; Receive; Begin; End_ ]))
         (pair (int_range 1 3) (int_range 1 2)))
  in
  let log = pair host (list_size (int_range 0 12) activity) in
  let segment =
    map
      (fun logs ->
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) logs
        |> List.map (fun (hostname, acts) -> Log.of_list ~hostname acts))
      (list_size (int_range 1 3) log)
  in
  list_size (int_range 1 4) segment

let prop_merge_agrees_with_native =
  QCheck.Test.make ~name:"merge = merge_native = stable spec" ~count:200
    (QCheck.make gen_segments) (fun segments ->
      let spec =
        List.concat segments
        |> List.map Log.hostname
        |> List.sort_uniq String.compare
        |> List.map (fun hostname ->
               List.concat_map
                 (fun segment ->
                   List.concat_map
                     (fun log -> if Log.hostname log = hostname then Log.to_list log else [])
                     segment)
                 segments
               |> List.stable_sort Activity.compare_by_time
               |> Log.of_list ~hostname)
        |> List.filter (fun log -> Log.length log > 0)
      in
      collection_equal spec (merge segments))

(* ---- compaction ---- *)

let test_compaction_equivalence () =
  with_dir @@ fun dir ->
  store_of_run dir;
  let before =
    match query ~dir Store.Query.all with
    | Ok (logs, _) -> logs
    | Error e -> failwith e
  in
  let m0 = match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e in
  let stats =
    match Store.Compact.run ~min_records:10_000 ~dir () with
    | Ok s -> s
    | Error e -> failwith e
  in
  Alcotest.(check bool) "fewer segments" true
    (stats.Store.Compact.segments_after < stats.segments_before);
  let m1 = match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e in
  Alcotest.(check int) "records preserved"
    (Store.Manifest.total_records m0)
    (Store.Manifest.total_records m1);
  (* ids of merged segments never collide with survivors *)
  let ids = List.map (fun (s : Store.Segment.meta) -> s.Store.Segment.id) m1.segments in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  match query ~dir Store.Query.all with
  | Error e -> Alcotest.fail e
  | Ok (after, _) ->
      Alcotest.(check bool) "query result unchanged" true (collection_equal before after)

let test_compaction_retention () =
  with_dir @@ fun dir ->
  store_of_run dir;
  let m0 = match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e in
  (* Retain a window much smaller than the run: old segments must go. *)
  let stats =
    match Store.Compact.run ~min_records:1 ~retain_ns:1_000_000 ~dir () with
    | Ok s -> s
    | Error e -> failwith e
  in
  Alcotest.(check bool) "some segments retired" true (stats.Store.Compact.retired > 0);
  let m1 = match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e in
  Alcotest.(check bool) "fewer live segments" true
    (List.length m1.Store.Manifest.segments < List.length m0.Store.Manifest.segments);
  (* Deleted segment files are gone from disk too. *)
  let live =
    List.map (fun (s : Store.Segment.meta) -> s.Store.Segment.file) m1.segments
  in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".pts" then
        Alcotest.(check bool) (Printf.sprintf "%s is live" f) true (List.mem f live))
    (Sys.readdir dir)

(* Segments 0-2 small, 3 large, 4-6 small, with 6 corrupt: the run
   0-2 merges, then the run 4-6 fails on 6. The failed compaction must
   leave a manifest naming only files on disk, and a query that never
   reaches segment 6 must still answer as before. *)
let test_compaction_failure_keeps_store () =
  with_dir @@ fun dir ->
  let mk ts = H.act ~kind:Activity.Send ~ts ~ctx:H.web_ctx ~flow:H.web_app_flow ~size:10 in
  let manifest =
    List.fold_left
      (fun m id ->
        let n = if id = 3 then 150 else 5 in
        let rows = List.init n (fun i -> mk ((id * 1_000) + i)) in
        Store.Manifest.add m
          (write_segment ~dir ~id ~policy:"none" [ Log.of_list ~hostname:"web" rows ]))
      Store.Manifest.empty [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  Store.Manifest.save manifest ~dir;
  Out_channel.with_open_bin (Filename.concat dir "seg-000006.pts") (fun oc ->
      Out_channel.output_string oc "XXXX");
  let before_six = Store.Query.predicate ~until_ns:5_999 () in
  let rows () =
    match query ~dir before_six with Ok (logs, _) -> logs | Error e -> Alcotest.fail e
  in
  let before = rows () in
  (match Store.Compact.run ~min_records:100 ~dir () with
  | Ok _ -> Alcotest.fail "compaction over a corrupt segment succeeded"
  | Error _ -> ());
  let m = match Store.Manifest.load ~dir with Ok m -> m | Error e -> failwith e in
  List.iter
    (fun (s : Store.Segment.meta) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s exists" s.Store.Segment.file)
        true
        (Sys.file_exists (Filename.concat dir s.Store.Segment.file)))
    m.Store.Manifest.segments;
  Alcotest.(check bool) "query before segment 6 unchanged" true (collection_equal before (rows ()))

(* ---- writer + policy end to end ---- *)

let test_writer_with_reduction () =
  with_dir @@ fun dir ->
  let o = Lazy.force outcome in
  let cfg = correlate_cfg () in
  let policy =
    match Store.Policy.of_string "causal,sample=0.25@3" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let writer = Store.Writer.create ~policy ~correlate:cfg ~roll_records:2000 ~dir () in
  ingest writer o.S.logs;
  let stats = Store.Writer.close writer in
  Alcotest.(check bool) "records reduced" true (stats.Store.Writer.records_out < stats.records_in);
  Alcotest.(check bool) "bytes reduced" true (stats.Store.Writer.bytes_out < stats.bytes_in);
  match query ~dir Store.Query.all with
  | Error e -> Alcotest.fail e
  | Ok (reduced, _) ->
      (* Per-batch reduction's one caveat (see writer.mli): a request
         straddling a segment boundary is reduced as two independent
         halves, so a few deformed CAGs can survive — but only a few,
         bounded by the requests in flight at each boundary, never a
         constant fraction of the run. *)
      let result = Correlator.correlate cfg reduced in
      let finished = List.length result.Correlator.cags in
      let deformed = List.length result.Correlator.deformed in
      Alcotest.(check bool)
        (Printf.sprintf "deformed %d small vs %d finished" deformed finished)
        true
        (float_of_int deformed < 0.05 *. float_of_int (finished + deformed))

(* ---- the shipped tee: in-band delivery feeds live correlation and the
   store ---- *)

let test_online_tee () =
  with_dir @@ fun dir ->
  let writer = Store.Writer.create ~roll_records:1000 ~dir () in
  let deploy = ref None in
  let outcome =
    S.run
      ~before_run:(fun svc ->
        deploy :=
          Some
            (Collect.Deploy.install ~telemetry:(Telemetry.Registry.create ()) ~writer svc))
      ~after_run:(fun _ -> Collect.Deploy.finish (Option.get !deploy))
      { S.default with S.clients = 40; time_scale = 0.05; seed = 11 }
  in
  ignore (Store.Writer.close writer);
  let online = Collect.Deploy.online (Option.get !deploy) in
  (* The store captured the raw delivered feed: querying it back returns
     exactly the run's collection, while the online run correlated the
     same feed into the offline paths. *)
  match query ~dir Store.Query.all with
  | Error e -> Alcotest.fail e
  | Ok (loaded, _) ->
      Alcotest.(check bool) "store holds the raw feed" true
        (collection_equal outcome.S.logs loaded);
      let cfg = Correlator.config ~transform:outcome.S.transform () in
      let offline = List.length (Correlator.correlate cfg outcome.S.logs).Correlator.cags in
      Alcotest.(check bool) "paths correlated" true (offline > 0);
      Alcotest.(check int) "online paths match offline" offline
        (List.length (Core.Online.paths online))

let () =
  Alcotest.run "store"
    [
      ( "policy",
        [
          Alcotest.test_case "to_string/of_string roundtrip" `Quick test_policy_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_policy_errors;
          Alcotest.test_case "defaults" `Quick test_policy_defaults;
        ] );
      ( "segment",
        [
          Alcotest.test_case "roundtrip + meta" `Quick test_segment_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_segment_rejects_corruption;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "save/load/rebuild" `Quick test_manifest_roundtrip;
          Alcotest.test_case "corrupt rejected" `Quick test_manifest_corrupt;
        ] );
      ( "writer",
        [
          Alcotest.test_case "rolls segments" `Quick test_writer_rolls_segments;
          Alcotest.test_case "close saves the manifest once" `Quick
            test_writer_saves_manifest_once;
          Alcotest.test_case "segments list only hosts with rows" `Quick
            test_writer_lists_only_hosts_with_rows;
          Alcotest.test_case "native ingest: unsorted equals sorted" `Quick
            test_ingest_native_unsorted_matches_sorted;
          Alcotest.test_case "native query equals record query" `Quick
            test_query_native_matches_record_query;
          Alcotest.test_case "reduction needs correlator" `Quick test_writer_requires_correlate;
          Alcotest.test_case "streaming reduction" `Quick test_writer_with_reduction;
          Alcotest.test_case "online correlation tee" `Quick test_online_tee;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "round-trip reproduces identical CAGs" `Quick
            test_roundtrip_fidelity;
          Alcotest.test_case "4x reduction keeps top-3 ranks" `Quick test_reduction_fidelity;
          Alcotest.test_case "whole requests only" `Quick test_reduction_keeps_whole_requests;
          Alcotest.test_case "seed-deterministic" `Quick test_reduction_deterministic;
          Alcotest.test_case "head and p boundaries" `Quick test_reduction_head_and_boundaries;
        ] );
      ( "query",
        [
          Alcotest.test_case "manifest prunes segments" `Quick test_query_prunes_segments;
          Alcotest.test_case "segment boundary is inclusive" `Quick
            test_query_boundary_inclusive;
          Alcotest.test_case "host filter" `Quick test_query_host_filter;
          Alcotest.test_case "merge keeps tied rows in order" `Quick test_merge_keeps_tied_rows;
          QCheck_alcotest.to_alcotest prop_merge_agrees_with_native;
        ] );
      ( "compact",
        [
          Alcotest.test_case "merge preserves content" `Quick test_compaction_equivalence;
          Alcotest.test_case "retention deletes old segments" `Quick test_compaction_retention;
          Alcotest.test_case "failed merge keeps the store readable" `Quick
            test_compaction_failure_keeps_store;
        ] );
    ]
