module Activity = Trace.Activity
module Sim_time = Simnet.Sim_time

type estimate = { host : string; offset : Sim_time.span; pairs_used : int }

type t = {
  reference : string;
  by_host : (string, estimate) Hashtbl.t;
  pair_samples : (string * string, int) Hashtbl.t;
}

(* min observed (recv_ts - send_ts) per ordered (src_host, dst_host). *)
let collect_mins cags =
  let mins : (string * string, Sim_time.span * int) Hashtbl.t = Hashtbl.create 16 in
  let note src dst span =
    let key = (src, dst) in
    match Hashtbl.find_opt mins key with
    | Some (m, n) ->
        Hashtbl.replace mins key
          ((if Sim_time.compare_span span m < 0 then span else m), n + 1)
    | None -> Hashtbl.replace mins key (span, 1)
  in
  List.iter
    (fun cag ->
      List.iter
        (fun (parent, kind, child) ->
          match kind with
          | Cag.Message_edge ->
              let src = (parent : Cag.vertex).Cag.activity.Activity.context.host in
              let dst = (child : Cag.vertex).Cag.activity.Activity.context.host in
              if not (String.equal src dst) then
                note src dst
                  (Sim_time.diff child.Cag.activity.Activity.timestamp
                     parent.Cag.activity.Activity.timestamp)
          | Cag.Context_edge -> ())
        (Cag.edges cag))
    cags;
  mins

let first_host cags =
  match cags with
  | cag :: _ -> Some (Cag.root cag).Cag.activity.Activity.context.host
  | [] -> None

let estimate ?reference cags =
  let mins = collect_mins cags in
  let hosts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (a, b) _ ->
      Hashtbl.replace hosts a ();
      Hashtbl.replace hosts b ())
    mins;
  let reference =
    match reference with
    | Some r -> r
    | None -> ( match first_host cags with Some h -> h | None -> "?")
  in
  Hashtbl.replace hosts reference ();
  (* Bidirectional pairs give a relative offset under the symmetric-minimum
     assumption. *)
  let theta : (string * string, Sim_time.span) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (a, b) (m_ab, _) ->
      match Hashtbl.find_opt mins (b, a) with
      | Some (m_ba, _) ->
          (* offset_b - offset_a = (m_ab - m_ba) / 2 *)
          Hashtbl.replace theta (a, b) (Sim_time.span_scale 0.5 (Sim_time.span_sub m_ab m_ba))
      | None -> ())
    mins;
  let by_host = Hashtbl.create 8 in
  Hashtbl.replace by_host reference { host = reference; offset = Sim_time.span_zero; pairs_used = 0 };
  (* BFS over the bidirectional-pair graph from the reference, driven by a
     sorted edge list: with inconsistent cycles the first-visit offset
     depends on traversal order, so hash order would make the result vary
     across runs. *)
  let edges =
    Hashtbl.fold (fun key th acc -> (key, th) :: acc) theta []
    |> List.sort (fun ((a1, b1), _) ((a2, b2), _) ->
           match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c)
  in
  let queue = Queue.create () in
  Queue.push reference queue;
  while not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    let base = (Hashtbl.find by_host a).offset in
    List.iter
      (fun ((x, y), th) ->
        let visit host offset =
          match Hashtbl.find_opt by_host host with
          | Some e -> Hashtbl.replace by_host host { e with pairs_used = e.pairs_used + 1 }
          | None ->
              Hashtbl.replace by_host host { host; offset; pairs_used = 1 };
              Queue.push host queue
        in
        if String.equal x a then visit y (Sim_time.span_add base th)
        else if String.equal y a then visit x (Sim_time.span_sub base th))
      edges
  done;
  (* Hosts with no usable pair keep offset 0. *)
  Hashtbl.iter
    (fun host () ->
      if not (Hashtbl.mem by_host host) then
        Hashtbl.replace by_host host { host; offset = Sim_time.span_zero; pairs_used = 0 })
    hosts;
  let pair_samples = Hashtbl.create 16 in
  Hashtbl.iter (fun key (_, n) -> Hashtbl.replace pair_samples key n) mins;
  { reference; by_host; pair_samples }

let offsets t =
  let all = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_host [] in
  let others =
    List.filter (fun e -> not (String.equal e.host t.reference)) all
    |> List.sort (fun a b -> String.compare a.host b.host)
  in
  Hashtbl.find t.by_host t.reference :: others

let offset_of t host =
  match Hashtbl.find_opt t.by_host host with
  | Some e -> e.offset
  | None -> Sim_time.span_zero

let samples t =
  Hashtbl.fold (fun (a, b) n acc -> (a, b, n) :: acc) t.pair_samples []
  |> List.sort compare

let correct_activity_ts t (a : Activity.t) =
  Sim_time.add a.timestamp (Sim_time.span_scale (-1.0) (offset_of t a.context.host))

let corrected_breakdown t cag =
  let hops = Latency.critical_path cag in
  let order = ref [] in
  let table = Hashtbl.create 8 in
  let add (hop : Latency.hop) =
    let span =
      Sim_time.diff
        (correct_activity_ts t hop.child.Cag.activity)
        (correct_activity_ts t hop.parent.Cag.activity)
    in
    let key = Latency.component_label hop.comp in
    match Hashtbl.find_opt table key with
    | Some total -> Hashtbl.replace table key (Sim_time.span_add total span)
    | None ->
        order := hop.comp :: !order;
        Hashtbl.replace table key span
  in
  List.iter add hops;
  List.rev_map (fun comp -> (comp, Hashtbl.find table (Latency.component_label comp))) !order
