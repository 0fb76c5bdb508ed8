module Activity = Trace.Activity
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time

type t = { signature : string; name : string; cags : Cag.t list; spans : Float.Array.t array }

let count t = List.length t.cags

let edge_tag = function Cag.Context_edge -> 'c' | Cag.Message_edge -> 'm'

(* Emit a vertex's parents as (edge tag, position) pairs in ascending
   order. {!Cag.Builder.add_edge} allows at most two parents. *)
let add_parents add buf (v : Cag.vertex) =
  match v.Cag.parents with
  | [] -> ()
  | [ (k, p) ] -> add buf (edge_tag k) p.Cag.pos
  | [ (k1, p1); (k2, p2) ] ->
      let t1 = edge_tag k1 and i1 = p1.Cag.pos in
      let t2 = edge_tag k2 and i2 = p2.Cag.pos in
      if t1 < t2 || (t1 = t2 && i1 <= i2) then begin
        add buf t1 i1;
        add buf t2 i2
      end
      else begin
        add buf t2 i2;
        add buf t1 i1
      end
  | _ -> assert false

(* ---- The signature string ---- *)

let rec add_decimal buf i =
  if i >= 10 then add_decimal buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_signature_parent buf tag i =
  Buffer.add_char buf '<';
  Buffer.add_char buf tag;
  add_decimal buf i

(* Inside a name, each of ['\\'], ['/'], ['<'] and [';'] is escaped with
   ['\\'], so no name can spell a separator and equal signatures mean
   equal [classify] keys. Names without them, every simulated one among
   them, are copied whole. *)
let special = function '\\' | '/' | '<' | ';' -> true | _ -> false

let add_name buf name =
  if not (String.exists special name) then Buffer.add_string buf name
  else
    String.iter
      (fun c ->
        if special c then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      name

let signature_of (cag : Cag.t) =
  let buf = Buffer.create 256 in
  for i = 0 to cag.Cag.vertex_count - 1 do
    let v = cag.Cag.verts.(i) in
    let a = v.Cag.activity in
    Buffer.add_string buf (Activity.kind_to_string a.Activity.kind);
    Buffer.add_char buf '/';
    add_name buf a.context.host;
    Buffer.add_char buf '/';
    add_name buf a.context.program;
    add_parents add_signature_parent buf v;
    Buffer.add_char buf ';'
  done;
  Buffer.contents buf

(* ---- Names ---- *)

let route programs =
  let rec dedup = function
    | a :: (b :: _ as rest) when String.equal a b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  String.concat ">" (dedup programs)

let program (v : Cag.vertex) = v.Cag.activity.Activity.context.program

let name_of cag =
  if Cag.is_finished cag then
    (* The critical path's vertices, collected walking back from END. *)
    let rec back v acc =
      let p = Latency.causal_parent v in
      if p == v then acc else back p (program p :: acc)
    in
    let last = cag.Cag.verts.(cag.Cag.vertex_count - 1) in
    route (back last [ program last ])
  else route (List.map program (Cag.vertices cag))

(* ---- Classification ---- *)

let rec add_uvarint buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_uvarint buf (n lsr 7)
  end

let add_key_parent buf tag i = add_uvarint buf ((2 * i) + if tag = 'c' then 0 else 1)

(* Per-call state: the key buffer, the critical-path spans of the
   current CAG (END first) and the (host, program) entity of every
   context seen, memoised by context id so the intern table is consulted
   once per distinct context. *)
type scratch = {
  key : Buffer.t;
  mutable hops : Float.Array.t;
  mutable entity_of_ctx : int array;
  entities : (int * int, int) Hashtbl.t;
}

let entity s ctx =
  if ctx >= Array.length s.entity_of_ctx then begin
    let bigger = Array.make (max (ctx + 1) (2 * Array.length s.entity_of_ctx)) (-1) in
    Array.blit s.entity_of_ctx 0 bigger 0 (Array.length s.entity_of_ctx);
    s.entity_of_ctx <- bigger
  end;
  let e = s.entity_of_ctx.(ctx) in
  if e >= 0 then e
  else begin
    let host, program, _, _ = Intern.context_parts_of_id ctx in
    let e =
      match Hashtbl.find s.entities (host, program) with
      | e -> e
      | exception Not_found ->
          let e = Hashtbl.length s.entities in
          Hashtbl.add s.entities (host, program) e;
          e
    in
    s.entity_of_ctx.(ctx) <- e;
    e
  end

(* The grouping key of a CAG: per vertex, its kind and parent count,
   its entity, then its sorted (edge tag, parent position) pairs, all as
   varints. *)
let key_in s (cag : Cag.t) =
  let buf = s.key in
  Buffer.clear buf;
  for i = 0 to cag.Cag.vertex_count - 1 do
    let v = cag.Cag.verts.(i) in
    add_uvarint buf
      (Activity.kind_to_code v.Cag.activity.Activity.kind + (4 * List.length v.Cag.parents));
    add_uvarint buf (entity s v.Cag.ctx_id);
    add_parents add_key_parent buf v
  done

(* Walk a finished CAG's critical path back from END, storing each
   hop's span in seconds; returns the hop count. *)
let rec spans_from s (v : Cag.vertex) k =
  let p = Latency.causal_parent v in
  if p == v then k
  else begin
    if k = Float.Array.length s.hops then begin
      let bigger = Float.Array.create (2 * k) in
      Float.Array.blit s.hops 0 bigger 0 k;
      s.hops <- bigger
    end;
    Float.Array.set s.hops k
      (Sim_time.span_to_float_s
         (Sim_time.diff v.Cag.activity.Activity.timestamp p.Cag.activity.Activity.timestamp));
    spans_from s p (k + 1)
  end

let spans_in s (cag : Cag.t) = spans_from s cag.Cag.verts.(cag.Cag.vertex_count - 1) 0

type group = {
  first : Cag.t;
  mutable rev_members : Cag.t list;
  mutable members : int;
  mutable columns : Float.Array.t array;  (* One per hop, [capacity] long. *)
  mutable capacity : int;
  mutable finished : int;
}

(* Append the [hops] spans in [s.hops] (END first) to the group's columns
   (causal order). *)
let record g s hops =
  if g.finished = 0 then begin
    g.columns <- Array.init hops (fun _ -> Float.Array.create 8);
    g.capacity <- 8
  end
  else if g.finished = g.capacity then begin
    let capacity = 2 * g.capacity in
    g.columns <-
      Array.map
        (fun c ->
          let bigger = Float.Array.create capacity in
          Float.Array.blit c 0 bigger 0 g.finished;
          bigger)
        g.columns;
    g.capacity <- capacity
  end;
  for h = 0 to hops - 1 do
    Float.Array.set g.columns.(h) g.finished (Float.Array.get s.hops (hops - 1 - h))
  done;
  g.finished <- g.finished + 1

let pattern_of g signature =
  {
    signature;
    name = name_of g.first;
    cags = List.rev g.rev_members;
    spans =
      Array.map
        (fun c -> if g.finished = g.capacity then c else Float.Array.sub c 0 g.finished)
        g.columns;
  }

let classify cags =
  let s =
    {
      key = Buffer.create 256;
      hops = Float.Array.create 16;
      entity_of_ctx = [||];
      entities = Hashtbl.create 16;
    }
  in
  let table = Hashtbl.create 64 in
  let rev_groups = ref [] in
  List.iter
    (fun cag ->
      key_in s cag;
      let key = Buffer.contents s.key in
      let g =
        match Hashtbl.find table key with
        | g -> g
        | exception Not_found ->
            let g =
              {
                first = cag;
                rev_members = [];
                members = 0;
                columns = [||];
                capacity = 0;
                finished = 0;
              }
            in
            Hashtbl.add table key g;
            rev_groups := g :: !rev_groups;
            g
      in
      g.rev_members <- cag :: g.rev_members;
      g.members <- g.members + 1;
      if Cag.is_finished cag then record g s (spans_in s cag))
    cags;
  List.rev_map (fun g -> (g, signature_of g.first)) !rev_groups
  |> List.stable_sort (fun (a, sa) (b, sb) ->
         match Int.compare b.members a.members with 0 -> String.compare sa sb | c -> c)
  |> List.map (fun (g, signature) -> pattern_of g signature)

let pp ppf t =
  Format.fprintf ppf "pattern %s: %d path%s" t.name (count t)
    (if count t = 1 then "" else "s")
