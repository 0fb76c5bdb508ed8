module Latency = Core.Latency
module Pattern = Core.Pattern
module Cag = Core.Cag
module Json = Core.Json
module Sim_time = Simnet.Sim_time

type pattern_profile = {
  signature : string;
  name : string;
  components : Latency.component list;
  shares : float array;
  frequency : float;
  mean_duration_s : float;
  count : int;
}

type t = {
  patterns : pattern_profile list;
  total_paths : int;
  span_s : float;
  throughput_rps : float;
}

let profile p = List.mapi (fun i c -> (c, p.shares.(i))) p.components

let find t ~signature =
  List.find_opt (fun p -> String.equal p.signature signature) t.patterns

(* ---- learning ---- *)

type obs = {
  o_signature : string;
  o_name : string;
  o_components : Latency.component list;
  o_shares : float array;
  o_duration_s : float;
  o_end_s : float;
}

type builder = { capacity : int; window : obs Queue.t }

let builder ?(capacity = 400) () =
  if capacity <= 0 then invalid_arg "Baseline.builder: capacity must be positive";
  { capacity; window = Queue.create () }

let observe_of cag =
  let parts = Latency.percentages (Latency.breakdown cag) in
  {
    o_signature = Pattern.signature_of cag;
    o_name = Pattern.name_of cag;
    o_components = List.map fst parts;
    o_shares = Array.of_list (List.map snd parts);
    o_duration_s = Sim_time.span_to_float_s (Cag.duration cag);
    o_end_s = Sim_time.to_float_s (Cag.end_ts cag);
  }

let learn b cag =
  if Cag.is_finished cag then begin
    Queue.push (observe_of cag) b.window;
    if Queue.length b.window > b.capacity then ignore (Queue.pop b.window)
  end

let seen b = Queue.length b.window

type accum = {
  a_name : string;
  a_components : Latency.component list;
  mutable a_share_sum : float array;
  mutable a_duration_sum : float;
  mutable a_count : int;
}

let freeze b =
  let total = Queue.length b.window in
  let by_sig : (string, accum) Hashtbl.t = Hashtbl.create 8 in
  let min_end = ref infinity and max_end = ref neg_infinity in
  Queue.iter
    (fun o ->
      if o.o_end_s < !min_end then min_end := o.o_end_s;
      if o.o_end_s > !max_end then max_end := o.o_end_s;
      match Hashtbl.find_opt by_sig o.o_signature with
      | None ->
          Hashtbl.replace by_sig o.o_signature
            {
              a_name = o.o_name;
              a_components = o.o_components;
              a_share_sum = Array.copy o.o_shares;
              a_duration_sum = o.o_duration_s;
              a_count = 1;
            }
      | Some a when Array.length a.a_share_sum = Array.length o.o_shares ->
          Array.iteri (fun i v -> a.a_share_sum.(i) <- a.a_share_sum.(i) +. v) o.o_shares;
          a.a_duration_sum <- a.a_duration_sum +. o.o_duration_s;
          a.a_count <- a.a_count + 1
      | Some _ -> () (* same signature should imply same arity; tolerate anomalies *))
    b.window;
  let patterns =
    Hashtbl.fold
      (fun signature a acc ->
        let n = float_of_int a.a_count in
        {
          signature;
          name = a.a_name;
          components = a.a_components;
          shares = Array.map (fun s -> s /. n) a.a_share_sum;
          frequency = n /. float_of_int (max 1 total);
          mean_duration_s = a.a_duration_sum /. n;
          count = a.a_count;
        }
        :: acc)
      by_sig []
    |> List.sort (fun a b ->
           match compare b.count a.count with
           | 0 -> String.compare a.signature b.signature
           | c -> c)
  in
  let span_s = if total >= 2 then !max_end -. !min_end else 0.0 in
  {
    patterns;
    total_paths = total;
    span_s;
    throughput_rps = (if span_s > 0.0 then float_of_int total /. span_s else 0.0);
  }

let of_paths ?capacity cags =
  let b = builder ?capacity () in
  List.iter (learn b) cags;
  freeze b

(* ---- persistence ---- *)

let format_tag = "pt-baseline-1"

let to_json t =
  let component c = Json.Obj [ ("src", Json.String c.Latency.src); ("dst", Json.String c.Latency.dst) ] in
  let pattern p =
    Json.Obj
      [
        ("signature", Json.String p.signature);
        ("name", Json.String p.name);
        ("count", Json.Int p.count);
        ("frequency", Json.Float p.frequency);
        ("mean_duration_s", Json.Float p.mean_duration_s);
        ("components", Json.List (List.map component p.components));
        ("shares", Json.List (Array.to_list (Array.map (fun v -> Json.Float v) p.shares)));
      ]
  in
  Json.Obj
    [
      ("format", Json.String format_tag);
      ("total_paths", Json.Int t.total_paths);
      ("span_s", Json.Float t.span_s);
      ("throughput_rps", Json.Float t.throughput_rps);
      ("patterns", Json.List (List.map pattern t.patterns));
    ]

let ( let* ) r f = Result.bind r f

let component_of_json j =
  let* src = Json.string_field "src" j in
  let* dst = Json.string_field "dst" j in
  Ok { Latency.src; dst }

let pattern_of_json j =
  let* signature = Json.string_field "signature" j in
  let* name = Json.string_field "name" j in
  let* count = Json.int_field "count" j in
  let* frequency = Json.float_field "frequency" j in
  let* mean_duration_s = Json.float_field "mean_duration_s" j in
  let* components = Json.list_field "components" j in
  let* components = Json.map_result component_of_json components in
  let* shares = Json.list_field "shares" j in
  let* shares = Json.map_result (Json.as_float "shares") shares in
  if List.length components <> List.length shares then
    Error (Printf.sprintf "pattern %S has %d components but %d shares" name
             (List.length components) (List.length shares))
  else
    Ok
      {
        signature;
        name;
        components;
        shares = Array.of_list shares;
        frequency;
        mean_duration_s;
        count;
      }

let of_json j =
  Result.map_error (fun e -> "baseline: " ^ e)
    (let* tag = Json.string_field "format" j in
     if not (String.equal tag format_tag) then
       Error (Printf.sprintf "unsupported format %S (expected %S)" tag format_tag)
     else
       let* total_paths = Json.int_field "total_paths" j in
       let* span_s = Json.float_field "span_s" j in
       let* throughput_rps = Json.float_field "throughput_rps" j in
       let* patterns = Json.list_field "patterns" j in
       let* patterns = Json.map_result pattern_of_json patterns in
       Ok { patterns; total_paths; span_s; throughput_rps })

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | body ->
      Result.map_error (Printf.sprintf "%s: %s" path) (Result.bind (Json.of_string body) of_json)
