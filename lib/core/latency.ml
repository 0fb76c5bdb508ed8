module Activity = Trace.Activity
module Sim_time = Simnet.Sim_time

type component = { src : string; dst : string }

let component_label c = c.src ^ "2" ^ c.dst

let compare_component a b =
  match String.compare a.src b.src with 0 -> String.compare a.dst b.dst | c -> c

let equal_component a b = compare_component a b = 0

type hop = {
  comp : component;
  parent : Cag.vertex;
  child : Cag.vertex;
  span : Sim_time.span;
}

(* Walking back from END: a RECEIVE follows its message parent, everything
   else its context parent, each falling back to the other kind. A vertex
   has at most two parents, and when it has two they are of different
   kinds. The root is its own causal parent. *)
let causal_parent (v : Cag.vertex) =
  match v.Cag.parents with
  | [] -> v
  | [ (_, p) ] -> p
  | (k, p) :: (_, q) :: _ ->
      let preferred =
        match v.Cag.activity.Activity.kind with
        | Activity.Receive -> Cag.Message_edge
        | Activity.Begin | Activity.End_ | Activity.Send -> Cag.Context_edge
      in
      if k = preferred then p else q

let critical_path cag =
  if not (Cag.is_finished cag) then invalid_arg "Latency.critical_path: CAG not finished";
  let program (v : Cag.vertex) = v.Cag.activity.Activity.context.program in
  let rec back v acc =
    let p = causal_parent v in
    if p == v then acc
    else
      back p
        ({
           comp = { src = program p; dst = program v };
           parent = p;
           child = v;
           span = Sim_time.diff v.Cag.activity.Activity.timestamp p.Cag.activity.Activity.timestamp;
         }
        :: acc)
  in
  (* The END, which a finished CAG added last. *)
  back cag.Cag.verts.(cag.Cag.vertex_count - 1) []

let breakdown cag =
  let hops = critical_path cag in
  let order = ref [] in
  let table = Hashtbl.create 8 in
  let add hop =
    let key = component_label hop.comp in
    match Hashtbl.find_opt table key with
    | Some total -> Hashtbl.replace table key (Sim_time.span_add total hop.span)
    | None ->
        order := hop.comp :: !order;
        Hashtbl.replace table key hop.span
  in
  List.iter add hops;
  List.rev_map (fun comp -> (comp, Hashtbl.find table (component_label comp))) !order
