module Aggregate = Core.Aggregate
module Analysis = Core.Analysis
module Cag = Core.Cag
module Json = Core.Json
module Sim_time = Simnet.Sim_time

type t = {
  profiles : Analysis.profile list;
  total_paths : int;
  span_s : float;
  throughput_rps : float;
}

let find t ~signature =
  List.find_opt (fun (p : Analysis.profile) -> String.equal p.signature signature) t.profiles

let frequency t (p : Analysis.profile) =
  float_of_int p.count /. float_of_int (max 1 t.total_paths)

(* ---- learning ---- *)

type builder = { capacity : int; window : Cag.t Queue.t }

let builder ?(capacity = 400) () =
  if capacity <= 0 then invalid_arg "Baseline.builder: capacity must be positive";
  { capacity; window = Queue.create () }

let learn b cag =
  if Cag.is_finished cag then begin
    Queue.push cag b.window;
    if Queue.length b.window > b.capacity then ignore (Queue.pop b.window)
  end

let seen b = Queue.length b.window

let freeze b =
  let cags = List.of_seq (Queue.to_seq b.window) in
  let total = List.length cags in
  let ends = List.map (fun c -> Sim_time.to_float_s (Cag.end_ts c)) cags in
  let span_s =
    if total >= 2 then
      List.fold_left Float.max neg_infinity ends -. List.fold_left Float.min infinity ends
    else 0.0
  in
  {
    profiles = Aggregate.profiles_of_cags cags;
    total_paths = total;
    span_s;
    throughput_rps = (if span_s > 0.0 then float_of_int total /. span_s else 0.0);
  }

let of_paths ?capacity cags =
  let b = builder ?capacity () in
  List.iter (learn b) cags;
  freeze b

(* ---- persistence ---- *)

let format_tag = "pt-baseline-2"

let to_json t =
  Json.Obj
    [
      ("format", Json.String format_tag);
      ("total_paths", Json.Int t.total_paths);
      ("span_s", Json.Float t.span_s);
      ("throughput_rps", Json.Float t.throughput_rps);
      ("patterns", Analysis.profiles_to_json t.profiles);
    ]

let ( let* ) r f = Result.bind r f

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
       let* profiles = Analysis.profiles_of_json (Json.List patterns) in
       Ok { profiles; total_paths; span_s; throughput_rps })

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | body ->
      Result.map_error (Printf.sprintf "%s: %s" path) (Result.bind (Json.of_string body) of_json)
