module Activity = Trace.Activity
module Address = Simnet.Address

type config = {
  entry_points : Address.endpoint list;
  drop_programs : string list;
  drop_ports : int list;
}

let config ~entry_points ?(drop_programs = []) ?(drop_ports = []) () =
  { entry_points; drop_programs; drop_ports }

let is_entry cfg ep = List.exists (Address.endpoint_equal ep) cfg.entry_points

module Arena = Trace.Arena
module Intern = Trace.Intern

(* Classification depends only on the context (program drop) and the flow
   (port drop, entry rewrite) — both dense interned ids — so decisions are
   computed once per distinct id and kept in two flat arrays indexed by
   id, [-1] while undecided: every further row with the same ids is two
   array reads. An id issued after [memo] was created grows its array. *)
type memo = {
  cfg : config;
  mutable ctx_drop : int array;  (* context id -> 1 dropped by program, 0 kept *)
  mutable flow_fate : int array;  (* flow id -> fate bits below *)
}

let fate_drop = 1 (* flow touches a dropped port *)
let fate_begin = 2 (* dst is an entry point: RECEIVE -> BEGIN *)
let fate_end = 4 (* src is an entry point: SEND -> END *)

let memo cfg =
  let _, contexts, flows = Intern.counts () in
  { cfg; ctx_drop = Array.make (max 64 contexts) (-1); flow_fate = Array.make (max 256 flows) (-1) }

let grow decisions id =
  let grown = Array.make (max (id + 1) (2 * Array.length decisions)) (-1) in
  Array.blit decisions 0 grown 0 (Array.length decisions);
  grown

let ctx_dropped m ctx =
  if ctx >= Array.length m.ctx_drop then m.ctx_drop <- grow m.ctx_drop ctx;
  let d = m.ctx_drop.(ctx) in
  if d >= 0 then d = 1
  else begin
    let c = Intern.context_of_id ctx in
    let b = List.exists (String.equal c.Activity.program) m.cfg.drop_programs in
    m.ctx_drop.(ctx) <- Bool.to_int b;
    b
  end

let flow_fate m flow =
  if flow >= Array.length m.flow_fate then m.flow_fate <- grow m.flow_fate flow;
  let f = m.flow_fate.(flow) in
  if f >= 0 then f
  else begin
    let fl = Intern.flow_of_id flow in
    let f =
      if
        List.exists
          (fun p -> fl.Address.src.port = p || fl.Address.dst.port = p)
          m.cfg.drop_ports
      then fate_drop
      else
        (if is_entry m.cfg fl.Address.dst then fate_begin else 0)
        lor if is_entry m.cfg fl.Address.src then fate_end else 0
    in
    m.flow_fate.(flow) <- f;
    f
  end

(* The rewritten kind code of row [i], or [-1] when the row is filtered
   out. *)
let classify_row m arena i =
  if ctx_dropped m (Arena.ctx_id arena i) then -1
  else begin
    let fate = flow_fate m (Arena.flow_id arena i) in
    if fate land fate_drop <> 0 then -1
    else begin
      let k = Arena.kind_code arena i in
      if fate land fate_begin <> 0 && k = Activity.kind_to_code Activity.Receive then
        Activity.kind_to_code Activity.Begin
      else if fate land fate_end <> 0 && k = Activity.kind_to_code Activity.Send then
        Activity.kind_to_code Activity.End_
      else k
    end
  end

let entry_unreached cfg =
  Format.asprintf "no BEGIN row: no flow reaches the entry endpoint %a"
    Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ", ") Address.pp_endpoint)
    cfg.entry_points

let apply_native cfg arenas =
  let m = memo cfg in
  List.map
    (fun a ->
      let out =
        Arena.create_sid ~capacity:(max 1 (Arena.length a)) ~origins:true (Arena.host_sid a)
      in
      for i = 0 to Arena.length a - 1 do
        let k = classify_row m a i in
        if k >= 0 then begin
          Arena.append out ~kind:k ~ts:(Arena.ts a i) ~ctx:(Arena.ctx_id a i)
            ~flow:(Arena.flow_id a i) ~size:(Arena.size a i);
          Arena.set_origin out (Arena.length out - 1) (Arena.origin a i)
        end
      done;
      (* The entry-point rewrite changes kind priorities, which can
         reorder rows sharing a timestamp: sort back into log order (the
         origin column moves with its rows). *)
      Arena.sort_by_time out;
      out)
    arenas
