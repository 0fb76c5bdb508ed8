(* The benchmark's own output digests, so its checks do not depend on any
   digest the library exports. Both cover the finished paths and the
   count of deformed paths (finished-but-flagged plus unfinished).

   [ordered] hashes, for each finished path in output order, its pattern
   signature and its begin and end timestamps. Reps of one job must agree
   on it exactly.

   [canonical] takes order out: each path is rendered as its sorted
   vertex set, each vertex with its sorted parent edges, and the path
   renderings are sorted. Pattern signatures are positional, and the
   online ranker or the bundle packer may correlate concurrent sibling
   calls in another order than the offline run does: the same paths,
   different signatures. Comparisons across modes use this form. *)

let hash s = Digest.to_hex (Digest.string s)

let deformed_count ~finished ~unfinished =
  List.length (List.filter Core.Cag.is_deformed finished) + List.length unfinished

let ordered ~finished ~deformed =
  let b = Buffer.create 4096 in
  List.iter
    (fun c ->
      Buffer.add_string b (Core.Pattern.signature_of c);
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int (Simnet.Sim_time.to_ns (Core.Cag.begin_ts c)));
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int (Simnet.Sim_time.to_ns (Core.Cag.end_ts c)));
      Buffer.add_char b '\n')
    finished;
  Buffer.add_string b (Printf.sprintf "deformed %d\n" deformed);
  hash (Buffer.contents b)

let vertex (v : Core.Cag.vertex) =
  let a = v.Core.Cag.activity in
  let c = a.Trace.Activity.context in
  String.concat "/"
    [
      Trace.Activity.kind_to_string a.Trace.Activity.kind;
      c.Trace.Activity.host;
      c.Trace.Activity.program;
      string_of_int c.Trace.Activity.pid;
      string_of_int c.Trace.Activity.tid;
      string_of_int (Simnet.Sim_time.to_ns a.Trace.Activity.timestamp);
      string_of_int a.Trace.Activity.message.Trace.Activity.size;
    ]

let canonical_path c =
  Core.Cag.vertices c
  |> List.map (fun (v : Core.Cag.vertex) ->
         let parents =
           List.map
             (fun (kind, p) ->
               (match kind with Core.Cag.Context_edge -> "<c" | Core.Cag.Message_edge -> "<m")
               ^ vertex p)
             v.Core.Cag.parents
         in
         vertex v ^ String.concat "" (List.sort String.compare parents))
  |> List.sort String.compare |> String.concat ";"

let canonical ~finished ~deformed =
  hash
    (String.concat "\n" (List.sort String.compare (List.map canonical_path finished))
    ^ Printf.sprintf "\ndeformed %d\n" deformed)
