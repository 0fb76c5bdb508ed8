module Activity = Trace.Activity
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time
module B = Trace.Binary_format
module Cag = Core.Cag

let magic = "PTP1"

type path = { cag : Cag.t; links : (int * int) list array }
type decoded = { link_hosts : string array; paths : path list }

let edge_code = function Cag.Context_edge -> 0 | Cag.Message_edge -> 1

let edge_of_code pos = function
  | 0 -> Cag.Context_edge
  | 1 -> Cag.Message_edge
  | c -> raise (B.Corrupt (pos, Printf.sprintf "bad edge code %d" c))

(* ---- encoding ---- *)

(* PTB1's interning tables: strings, contexts and flows repeat across
   most vertices, so each vertex carries small table indices. The vertex
   list of a CAG is its causal order; local vertex ids are list
   positions, and parent references are backward deltas. Vertices carry
   their interned ids, so filling the tables makes no {!Intern} lookup. *)
let encode ~link_hosts paths =
  let t = B.tables () in
  let context (v : Cag.vertex) = B.table_context t v.Cag.ctx_id in
  let flow (v : Cag.vertex) = B.table_flow t v.Cag.flow_id in
  List.iter
    (fun { cag; links } ->
      let n = Cag.size cag in
      if Array.length links > 0 && Array.length links <> n then
        invalid_arg
          (Printf.sprintf "Codec.encode: path %d has %d vertices but %d link rows"
             cag.Cag.cag_id n (Array.length links));
      List.iter
        (fun v ->
          ignore (context v);
          ignore (flow v))
        (Cag.vertices cag))
    paths;
  (* After the vertex strings, before the table is written: a host no
     vertex mentions still gets an entry. *)
  let link_hosts = Array.map (fun h -> B.table_string t (Intern.string_id h)) link_hosts in
  let w = B.w_create 65_536 in
  B.w_raw w magic;
  B.w_tables w t;
  B.w_uvarint w (Array.length link_hosts);
  Array.iter (B.w_uvarint w) link_hosts;
  B.w_uvarint w (List.length paths);
  List.iter
    (fun { cag; links } ->
      let vertices = Cag.vertices cag in
      let local = Hashtbl.create 16 in
      List.iteri (fun i (v : Cag.vertex) -> Hashtbl.replace local v.Cag.vid i) vertices;
      B.w_uvarint w cag.Cag.cag_id;
      let flags =
        (if Cag.is_finished cag then 1 else 0) lor if Cag.is_deformed cag then 2 else 0
      in
      B.w_uvarint w flags;
      B.w_uvarint w (List.length vertices);
      let prev_ts = ref 0 in
      List.iteri
        (fun i (v : Cag.vertex) ->
          let a = v.Cag.activity in
          B.w_uvarint w (Activity.kind_to_code a.Activity.kind);
          let ts = Sim_time.to_ns a.timestamp in
          B.w_varint w (ts - !prev_ts);
          prev_ts := ts;
          B.w_uvarint w (context v);
          B.w_uvarint w (flow v);
          B.w_uvarint w a.message.size;
          (* parents in addition order, as backward position deltas *)
          let parents = List.rev v.Cag.parents in
          B.w_uvarint w (List.length parents);
          List.iter
            (fun (kind, (p : Cag.vertex)) ->
              B.w_uvarint w (edge_code kind);
              B.w_uvarint w (i - Hashtbl.find local p.Cag.vid))
            parents;
          let vlinks = if Array.length links = 0 then [] else links.(i) in
          B.w_uvarint w (List.length vlinks);
          List.iter
            (fun (h, r) ->
              B.w_uvarint w h;
              B.w_uvarint w r)
            vlinks)
        vertices)
    paths;
  B.w_contents w

(* ---- decoding ---- *)

(* One path: the vertices in causal order, each adopted and wired to its
   parents as it is read. Beyond the per-field checks, the rebuilt CAG
   must pass [Cag.validate]; a failure names the path's offset. *)
let read_path r ~contexts ~flows ~host_count =
  let path_at = r.B.pos in
  let cag_id = B.get_uvarint r in
  let flags = B.get_uvarint r in
  if flags land lnot 3 <> 0 then raise (B.Corrupt (r.B.pos, "bad path flags"));
  let vertex_count = B.get_count r "vertex" in
  if vertex_count = 0 then raise (B.Corrupt (r.B.pos, "empty CAG"));
  let vertices = Array.make vertex_count None in
  let prev_ts = ref 0 in
  let cag = ref None in
  let links = Array.make vertex_count [] in
  for i = 0 to vertex_count - 1 do
    let kind =
      let code = B.get_uvarint r in
      match Activity.kind_of_code code with
      | Some k -> k
      | None -> raise (B.Corrupt (r.B.pos, Printf.sprintf "bad kind code %d" code))
    in
    let ts = !prev_ts + B.get_varint r in
    prev_ts := ts;
    let ctx, context = B.get_index r contexts "context" in
    let flow_id, flow = B.get_index r flows "flow" in
    let size = B.get_uvarint r in
    let a = { Activity.kind; timestamp = Sim_time.of_ns ts; context; message = { flow; size } } in
    let v = Cag.Builder.fresh_row ~ctx ~flow:flow_id ~source:Cag.no_row a in
    vertices.(i) <- Some v;
    (match !cag with
    | None -> cag := Some (Cag.Builder.create ~cag_id v)
    | Some c -> Cag.Builder.adopt c v);
    let parent_count = B.get_count r "parent" in
    if i = 0 && parent_count > 0 then raise (B.Corrupt (r.B.pos, "root vertex with a parent"));
    for _ = 1 to parent_count do
      let kind = edge_of_code r.B.pos (B.get_uvarint r) in
      let delta = B.get_uvarint r in
      if delta < 1 || delta > i then raise (B.Corrupt (r.B.pos, "parent reference out of range"));
      Cag.Builder.add_edge kind ~parent:(Option.get vertices.(i - delta)) ~child:v
    done;
    links.(i) <-
      List.init (B.get_count r "link") (fun _ ->
          let h = B.get_uvarint r in
          if h < 0 || h >= host_count then
            raise (B.Corrupt (r.B.pos, "link host index out of range"));
          (h, B.get_uvarint r))
  done;
  let cag = Option.get !cag in
  if flags land 1 <> 0 then Cag.Builder.finish cag;
  if flags land 2 <> 0 then Cag.Builder.mark_deformed cag;
  (match Cag.validate cag with Ok () -> () | Error e -> raise (B.Corrupt (path_at, e)));
  { cag; links }

(* [pos]/[len] delimit the paths section inside [data] (the whole bundle
   string), so error offsets are bundle-relative. *)
let decode data ~pos ~len =
  B.decode_frame ~magic data ~pos ~len (fun r ->
      let ids = B.get_tables r in
      (* each table entry with its record: vertices take both, with no
         per-vertex lookup *)
      let contexts = Array.map (fun id -> (id, Intern.context_of_id id)) ids.B.context_ids in
      let flows = Array.map (fun id -> (id, Intern.flow_of_id id)) ids.B.flow_ids in
      let host_count = B.get_count r "link host table" in
      let link_hosts =
        Array.init host_count (fun _ ->
            Intern.string_of_id (B.get_index r ids.B.string_ids "string"))
      in
      let path_count = B.get_count r "path" in
      let paths = List.init path_count (fun _ -> read_path r ~contexts ~flows ~host_count) in
      { link_hosts; paths })
