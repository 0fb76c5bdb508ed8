module Activity = Trace.Activity
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time
module B = Trace.Binary_format
module Cag = Core.Cag

let magic = "PTP1"

type path = { cag : Cag.t }
type decoded = { link_hosts : string array; paths : path list }
type encoded = { bytes : string; links : int; unresolved_links : int }

let edge_code = function Cag.Context_edge -> 0 | Cag.Message_edge -> 1

let edge_of_code pos = function
  | 0 -> Cag.Context_edge
  | 1 -> Cag.Message_edge
  | c -> raise (B.Corrupt (pos, Printf.sprintf "bad edge code %d" c))

(* ---- encoding ---- *)

(* PTB1's interning tables: strings, contexts and flows repeat across
   most vertices, so each vertex carries small table indices. A CAG's
   vertex array is its causal order; local vertex ids are the vertices'
   own positions, and parent references are backward deltas between
   them. Vertices carry their interned ids, so filling the tables makes
   no {!Intern} lookup. One pass over the vertices writes the paths and
   fills the tables in first-use order; the tables then go in front. A
   vertex's back-links are its sources, written as they stand. *)
let encode ~link_hosts cags =
  let t = B.tables () in
  let host_count = Array.length link_hosts in
  let w = B.w_create 65_536 in
  let links = ref 0 and unresolved = ref 0 in
  (* newest-first sources, written back in observation order *)
  let rec write_sources = function
    | [] -> ()
    | s :: rest ->
        write_sources rest;
        if s <> Cag.no_row then begin
          let h = Cag.source_host s in
          if h >= host_count then
            invalid_arg (Printf.sprintf "Codec.encode: source host %d has no link host" h);
          B.w_uvarint w h;
          B.w_uvarint w (Cag.source_row s)
        end
  in
  let write_links (v : Cag.vertex) =
    if host_count = 0 then B.w_uvarint w 0
    else begin
      let n = List.fold_left (fun n s -> if s = Cag.no_row then n else n + 1) 0 v.Cag.rev_sources in
      links := !links + n;
      unresolved := !unresolved + List.length v.Cag.rev_sources - n;
      B.w_uvarint w n;
      write_sources v.Cag.rev_sources
    end
  in
  let write_parent i (kind, p) =
    B.w_uvarint w (edge_code kind);
    B.w_uvarint w (i - p.Cag.pos)
  in
  List.iter
    (fun cag ->
      B.w_uvarint w cag.Cag.cag_id;
      let flags =
        (if Cag.is_finished cag then 1 else 0) lor if Cag.is_deformed cag then 2 else 0
      in
      B.w_uvarint w flags;
      B.w_uvarint w cag.Cag.vertex_count;
      let prev_ts = ref 0 in
      for i = 0 to cag.Cag.vertex_count - 1 do
        let v = cag.Cag.verts.(i) in
        let a = v.Cag.activity in
        B.w_uvarint w (Activity.kind_to_code a.Activity.kind);
        let ts = Sim_time.to_ns a.timestamp in
        B.w_varint w (ts - !prev_ts);
        prev_ts := ts;
        B.w_uvarint w (B.table_context t v.Cag.ctx_id);
        B.w_uvarint w (B.table_flow t v.Cag.flow_id);
        B.w_uvarint w a.message.size;
        (* parents in addition order, as backward position deltas *)
        (match v.Cag.parents with
        | [] -> B.w_uvarint w 0
        | [ p ] ->
            B.w_uvarint w 1;
            write_parent i p
        | [ p2; p1 ] ->
            B.w_uvarint w 2;
            write_parent i p1;
            write_parent i p2
        | _ -> invalid_arg "Codec.encode: vertex with more than two parents");
        write_links v
      done)
    cags;
  (* After the vertex strings, before the table is written: a host no
     vertex mentions still gets an entry. *)
  let link_hosts = Array.map (fun h -> B.table_string t (Intern.string_id h)) link_hosts in
  let head = B.w_create 65_536 in
  B.w_raw head magic;
  B.w_tables head t;
  B.w_uvarint head host_count;
  Array.iter (B.w_uvarint head) link_hosts;
  B.w_uvarint head (List.length cags);
  { bytes = B.w_contents head ^ B.w_contents w; links = !links; unresolved_links = !unresolved }

(* ---- decoding ---- *)

(* One path: the vertices in causal order, each adopted and wired to its
   parents as it is read. A vertex's links follow its parents and become
   its sources, so its parents are held until its links are read. Beyond
   the per-field checks, the rebuilt CAG must pass [Cag.validate]; a
   failure names the path's offset. *)
let read_path r ~contexts ~flows ~host_count =
  let path_at = r.B.pos in
  let cag_id = B.get_uvarint r in
  let flags = B.get_uvarint r in
  if flags land lnot 3 <> 0 then raise (B.Corrupt (r.B.pos, "bad path flags"));
  let vertex_count = B.get_count r "vertex" in
  if vertex_count = 0 then raise (B.Corrupt (r.B.pos, "empty CAG"));
  let prev_ts = ref 0 in
  let cag = ref None in
  let parent i =
    let kind = edge_of_code r.B.pos (B.get_uvarint r) in
    let delta = B.get_uvarint r in
    if delta < 1 || delta > i then raise (B.Corrupt (r.B.pos, "parent reference out of range"));
    (kind, (Option.get !cag).Cag.verts.(i - delta))
  in
  let source () =
    let h = B.get_uvarint r in
    if h < 0 || h >= host_count then raise (B.Corrupt (r.B.pos, "link host index out of range"));
    let row = B.get_uvarint r in
    if row < 0 || row >= 1 lsl Cag.row_bits then
      raise (B.Corrupt (r.B.pos, "link row out of range"));
    Cag.source ~host:h ~row
  in
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
    let parent_count = B.get_count r "parent" in
    if i = 0 && parent_count > 0 then raise (B.Corrupt (r.B.pos, "root vertex with a parent"));
    if parent_count > 2 then raise (B.Corrupt (r.B.pos, "more than two parents"));
    let parents = List.init parent_count (fun _ -> parent i) in
    let link_count = B.get_count r "link" in
    let v =
      Cag.Builder.fresh_row ~ctx ~flow:flow_id
        ~source:(if link_count = 0 then Cag.no_row else source ())
        a
    in
    for _ = 2 to link_count do
      Cag.Builder.add_source v (source ())
    done;
    (match !cag with
    | None -> cag := Some (Cag.Builder.create ~cag_id v)
    | Some c -> Cag.Builder.adopt c v);
    List.iter (fun (kind, parent) -> Cag.Builder.add_edge kind ~parent ~child:v) parents
  done;
  let cag = Option.get !cag in
  if flags land 1 <> 0 then Cag.Builder.finish cag;
  if flags land 2 <> 0 then Cag.Builder.mark_deformed cag;
  (match Cag.validate cag with Ok () -> () | Error e -> raise (B.Corrupt (path_at, e)));
  { cag }

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
      (* a source packs its host above {!Cag.row_bits} bits of row *)
      if host_count > max_int lsr Cag.row_bits then
        raise (B.Corrupt (r.B.pos, "link host table too large"));
      let link_hosts =
        Array.init host_count (fun _ ->
            Intern.string_of_id (B.get_index r ids.B.string_ids "string"))
      in
      let path_count = B.get_count r "path" in
      let paths = List.init path_count (fun _ -> read_path r ~contexts ~flows ~host_count) in
      { link_hosts; paths })
