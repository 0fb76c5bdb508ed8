module Activity = Trace.Activity
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time

type edge_kind = Context_edge | Message_edge

let pp_edge_kind ppf = function
  | Context_edge -> Format.pp_print_string ppf "ctx"
  | Message_edge -> Format.pp_print_string ppf "msg"

type vertex = {
  mutable pos : int;
  mutable activity : Activity.t;
  ctx_id : int;
  flow_id : int;
  mutable parents : (edge_kind * vertex) list;
  mutable children : (edge_kind * vertex) list;
  mutable cag : t option;
  mutable unreceived : int;
  mutable rev_sources : int list;
  mutable rev_pending_sources : int list;
}

and t = {
  mutable cag_id : int;
  root : vertex;
  mutable verts : vertex array;
  mutable vertex_count : int;
  mutable finished : bool;
  mutable deformed : bool;
}

(* A source row packs (host, row) into one immediate int: the low
   [row_bits] bits hold the row. *)
let row_bits = 40
let no_row = -1
let source ~host ~row = if row < 0 || host < 0 then no_row else (host lsl row_bits) lor row
let source_host s = s lsr row_bits
let source_row s = s land ((1 lsl row_bits) - 1)

module Builder = struct
  let fresh_row ~ctx ~flow ~source activity =
    {
      pos = -1;
      activity;
      ctx_id = ctx;
      flow_id = flow;
      parents = [];
      children = [];
      cag = None;
      unreceived = (match activity.Activity.kind with Send -> activity.message.size | _ -> 0);
      rev_sources = [ source ];
      rev_pending_sources = [];
    }

  let fresh_vertex (a : Activity.t) =
    fresh_row
      ~ctx:(Intern.context_id a.Activity.context)
      ~flow:(Intern.flow_id a.Activity.message.flow)
      ~source:no_row a

  (* Slots past [vertex_count] hold the root as filler. *)
  let initial_capacity = 16

  let create ~cag_id root =
    let t =
      {
        cag_id;
        root;
        verts = Array.make initial_capacity root;
        vertex_count = 1;
        finished = false;
        deformed = false;
      }
    in
    root.pos <- 0;
    root.cag <- Some t;
    t

  let adopt t v =
    (match v.cag with
    | Some _ -> invalid_arg "Cag.Builder.adopt: vertex already in a CAG"
    | None -> ());
    let n = t.vertex_count in
    if n = Array.length t.verts then begin
      let bigger = Array.make (2 * n) t.root in
      Array.blit t.verts 0 bigger 0 n;
      t.verts <- bigger
    end;
    t.verts.(n) <- v;
    v.pos <- n;
    v.cag <- Some t;
    t.vertex_count <- n + 1

  let add_edge kind ~parent ~child =
    let violation msg = invalid_arg ("Cag.Builder.add_edge: " ^ msg) in
    (match (kind, child.parents, child.activity.Activity.kind) with
    | _, [], _ -> ()
    | Message_edge, [ (Context_edge, _) ], Activity.Receive -> ()
    | Context_edge, [ (Message_edge, _) ], Activity.Receive -> ()
    | _, [ _ ], _ -> violation "second parent only allowed on a RECEIVE, one per kind"
    | _, _ :: _ :: _, _ -> violation "vertex already has two parents");
    child.parents <- (kind, parent) :: child.parents;
    parent.children <- parent.children @ [ (kind, child) ]

  let grow_send v extra =
    let a = v.activity in
    v.activity <- { a with Activity.message = { a.message with size = a.message.size + extra } };
    v.unreceived <- v.unreceived + extra

  let consume v n =
    v.unreceived <- v.unreceived - n;
    v.unreceived

  let set_full_size v size =
    let a = v.activity in
    v.activity <- { a with Activity.message = { a.message with size } }

  let refresh_receive v ~timestamp ~size =
    let a = v.activity in
    v.activity <- { a with Activity.timestamp; message = { a.message with size } }

  let add_source v a = v.rev_sources <- a :: v.rev_sources

  let stash_pending_source v a = v.rev_pending_sources <- a :: v.rev_pending_sources

  let take_pending_sources v =
    let chunks = List.rev v.rev_pending_sources in
    v.rev_pending_sources <- [];
    chunks

  (* Prepend chunks observed before the vertex's creating activity, e.g.
     the partial RECEIVEs preceding the completing one. *)
  let add_earlier_sources v chunks = v.rev_sources <- v.rev_sources @ List.rev chunks

  let finish t = t.finished <- true
  let mark_deformed t = t.deformed <- true
  let renumber t ~cag_id = t.cag_id <- cag_id
end

(* Newest-first to observation order, dropping the sources with no row. *)
let sources v = List.fold_left (fun acc s -> if s = no_row then acc else s :: acc) [] v.rev_sources
let root t = t.root
let is_finished t = t.finished
let is_deformed t = t.deformed
let vertices t = List.init t.vertex_count (Array.get t.verts)
let size t = t.vertex_count
let begin_ts t = t.root.activity.Activity.timestamp
let end_ts t = t.verts.(t.vertex_count - 1).activity.Activity.timestamp

let duration t = Sim_time.diff (end_ts t) (begin_ts t)

let edges t =
  List.concat_map
    (fun child -> List.map (fun (kind, parent) -> (parent, kind, child)) (List.rev child.parents))
    (vertices t)

let contexts t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun v ->
      let c = v.activity.Activity.context in
      let key = (c.Activity.host, c.program, c.pid, c.tid) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        Some c
      end)
    (vertices t)

let validate t =
  let ( let* ) r f = Result.bind r f in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let* () =
    if t.finished then
      let last = t.verts.(t.vertex_count - 1) in
      match (t.root.activity.Activity.kind, last.activity.Activity.kind) with
      | Activity.Begin, Activity.End_ -> Ok ()
      | k1, k2 ->
          fail "CAG %d: finished but spans %s..%s" t.cag_id (Activity.kind_to_string k1)
            (Activity.kind_to_string k2)
    else Ok ()
  in
  (* A parent in the same CAG at a smaller position, for every vertex but
     the root, makes the graph acyclic and reachable from the root. *)
  let check_vertex acc v =
    let* () = acc in
    let* () =
      match v.parents with
      | [] ->
          if v == t.root then Ok () else fail "CAG %d: vertex %d is parentless" t.cag_id v.pos
      | [ _ ] -> Ok ()
      | [ (k1, _); (k2, _) ] ->
          if not (Activity.equal_kind v.activity.Activity.kind Activity.Receive) then
            fail "CAG %d: non-RECEIVE vertex %d has two parents" t.cag_id v.pos
          else if k1 = k2 then
            fail "CAG %d: vertex %d has two parents of the same relation" t.cag_id v.pos
          else Ok ()
      | _ -> fail "CAG %d: vertex %d has more than two parents" t.cag_id v.pos
    in
    let check_parent acc (_, p) =
      let* () = acc in
      match p.cag with
      | Some c when c == t ->
          if p.pos < v.pos then Ok ()
          else fail "CAG %d: edge %d -> %d violates causal order" t.cag_id p.pos v.pos
      | Some _ | None -> fail "CAG %d: parent of %d is outside the CAG" t.cag_id v.pos
    in
    List.fold_left check_parent (Ok ()) v.parents
  in
  List.fold_left check_vertex (Ok ()) (vertices t)

let pp ppf t =
  Format.fprintf ppf "@[<v>CAG %d (%s, %d vertices)" t.cag_id
    (if t.finished then "finished" else "open")
    t.vertex_count;
  List.iter
    (fun v ->
      Format.fprintf ppf "@,  [%d] %a" v.pos Activity.pp v.activity;
      List.iter
        (fun (k, p) -> Format.fprintf ppf "@,        <-%a- [%d]" pp_edge_kind k p.pos)
        (List.rev v.parents))
    (vertices t);
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph cag_%d {\n  rankdir=LR;\n" t.cag_id);
  List.iter
    (fun v ->
      let a = v.activity in
      Buffer.add_string buf
        (Printf.sprintf "  v%d [label=\"%s\\n%s[%d/%d]\\n%d ns\"];\n" v.pos
           (Activity.kind_to_string a.Activity.kind)
           a.context.program a.context.pid a.context.tid
           (Sim_time.to_ns a.timestamp)))
    (vertices t);
  List.iter
    (fun (p, kind, c) ->
      let style =
        match kind with
        | Context_edge -> "color=red"
        | Message_edge -> "color=blue, style=dashed"
      in
      Buffer.add_string buf (Printf.sprintf "  v%d -> v%d [%s];\n" p.pos c.pos style))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
