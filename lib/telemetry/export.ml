(* Prometheus label values escape backslash, double-quote and newline. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_pairs labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)

let labels_str labels = match labels with [] -> "" | l -> "{" ^ label_pairs l ^ "}"

(* [le] joins the sample's own labels inside one brace pair. *)
let labels_with_le labels le =
  let le_pair = Printf.sprintf "le=\"%s\"" le in
  match labels with
  | [] -> "{" ^ le_pair ^ "}"
  | l -> "{" ^ label_pairs l ^ "," ^ le_pair ^ "}"

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let prom_kind (f : Registry.family) =
  match f.samples with
  | { value = Registry.Counter _; _ } :: _ -> "counter"
  | { value = Registry.Gauge _; _ } :: _ -> "gauge"
  | { value = Registry.Hist _; _ } :: _ -> "histogram"
  | [] -> "untyped"

let to_prometheus families =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f : Registry.family) ->
      if f.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.name f.help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.name (prom_kind f));
      List.iter
        (fun (s : Registry.sample) ->
          match s.value with
          | Registry.Counter c ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" f.name (labels_str s.labels) c)
          | Registry.Gauge g ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" f.name (labels_str s.labels) (float_str g))
          | Registry.Hist h ->
              List.iter
                (fun (b : Histogram.bucket) ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" f.name
                       (labels_with_le s.labels (float_str b.upper))
                       b.cumulative))
                h.buckets;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" f.name
                   (labels_with_le s.labels "+Inf") h.count);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" f.name (labels_str s.labels) (float_str h.sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" f.name (labels_str s.labels) h.count))
        f.samples)
    families;
  Buffer.contents buf

let to_json families =
  Json.Obj
    (List.map
       (fun (f : Registry.family) ->
         let sample_json (s : Registry.sample) =
           let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.labels) in
           match s.value with
           | Registry.Counter c -> Json.Obj [ ("labels", labels); ("value", Json.Int c) ]
           | Registry.Gauge g -> Json.Obj [ ("labels", labels); ("value", Json.Float g) ]
           | Registry.Hist h ->
               Json.Obj
                 [
                   ("labels", labels);
                   ("count", Json.Int h.count);
                   ("sum", Json.Float h.sum);
                   ("min", Json.Float h.min_v);
                   ("max", Json.Float h.max_v);
                   ("p50", Json.Float h.p50);
                   ("p90", Json.Float h.p90);
                   ("p99", Json.Float h.p99);
                   ( "buckets",
                     Json.List
                       (List.map
                          (fun (b : Histogram.bucket) ->
                            Json.Obj
                              [
                                ("le", Json.Float b.upper);
                                ("cumulative", Json.Int b.cumulative);
                              ])
                          h.buckets) );
                 ]
         in
         ( f.name,
           Json.Obj
             [
               ("help", Json.String f.help);
               ("type", Json.String (prom_kind f));
               ("samples", Json.List (List.map sample_json f.samples));
             ] ))
       families)

let to_json_string ?(indent = true) families = Json.to_string ~indent (to_json families)

(* ---- snapshot restore (bundle embed/re-read) ---- *)

let ( let* ) = Result.bind

let labels_of_json = function
  | Some (Json.Obj pairs) ->
      Json.map_result (fun (k, v) -> Result.map (fun s -> (k, s)) (Json.as_string k v)) pairs
  | Some _ -> Error "labels is not an object"
  | None -> Ok []

let bucket_of_json j =
  let* upper = Json.float_field "le" j in
  let* cumulative = Json.int_field "cumulative" j in
  Ok { Histogram.upper; cumulative }

let sample_of_json kind j =
  let* labels = labels_of_json (Json.member "labels" j) in
  let* value =
    match kind with
    | "counter" ->
        let* v = Json.int_field "value" j in
        Ok (Registry.Counter v)
    | "gauge" ->
        let* v = Json.float_field "value" j in
        Ok (Registry.Gauge v)
    | "histogram" ->
        let* count = Json.int_field "count" j in
        let* sum = Json.float_field "sum" j in
        let* min_v = Json.float_field "min" j in
        let* max_v = Json.float_field "max" j in
        let* p50 = Json.float_field "p50" j in
        let* p90 = Json.float_field "p90" j in
        let* p99 = Json.float_field "p99" j in
        let* buckets = Json.list_field "buckets" j in
        let* buckets = Json.map_result bucket_of_json buckets in
        Ok (Registry.Hist { count; sum; min_v; max_v; p50; p90; p99; buckets })
    | other -> Error (Printf.sprintf "unknown family type %S" other)
  in
  Ok { Registry.labels; value }

let family_of_json name j =
  let* help =
    match Json.member "help" j with None -> Ok "" | Some _ -> Json.string_field "help" j
  in
  let* kind = Json.string_field "type" j in
  let* samples = Json.list_field "samples" j in
  let* samples =
    if String.equal kind "untyped" then Ok [] else Json.map_result (sample_of_json kind) samples
  in
  Ok { Registry.name; help; samples }

let of_json = function
  | Json.Obj pairs ->
      Json.map_result
        (fun (name, j) ->
          Result.map_error
            (fun e -> Printf.sprintf "telemetry family %S: %s" name e)
            (family_of_json name j))
        pairs
  | _ -> Error "telemetry snapshot is not an object"
