module Activity = Trace.Activity
module Arena = Trace.Arena
module Boundary = Trace.Boundary

type config = { transform : Transform.config; max_flows : int }

let config ~transform ?(max_flows = 4096) () =
  if max_flows <= 0 then invalid_arg "Partial.config: max_flows";
  { transform; max_flows }

type t = { config : config; memo : Transform.memo }

let create config = { config; memo = Transform.memo config.transform }

type result = {
  arena : Arena.t;
  boundary : Boundary.t;
  rows_in : int;
  rows_dropped : int;
  rows_coalesced : int;
  local_flows : int;
  fallback : bool;
}

(* Output rows buffered mutably so a run head can keep growing until its
   run breaks; appended into a fresh arena at the end. *)
type orow = { kind : int; ts : int; ctx : int; flow : int; mutable size : int }

type dirs = {
  mutable out_rows : int;
  mutable out_bytes : int;
  mutable in_rows : int;
  mutable in_bytes : int;
}

let code_send = Activity.kind_to_code Activity.Send
let code_end = Activity.kind_to_code Activity.End_
let code_receive = Activity.kind_to_code Activity.Receive

exception Over_budget

let reduce t arena =
  let n = Arena.length arena in
  let flows : (int, dirs) Hashtbl.t = Hashtbl.create 64 in
  let last : (int, orow * int) Hashtbl.t = Hashtbl.create 64 in
  let rev_out = ref [] in
  let kept = ref 0 in
  let dropped = ref 0 in
  let coalesced = ref 0 in
  let dirs_of flow =
    match Hashtbl.find_opt flows flow with
    | Some d -> d
    | None ->
        if Hashtbl.length flows >= t.config.max_flows then raise Over_budget;
        let d = { out_rows = 0; out_bytes = 0; in_rows = 0; in_bytes = 0 } in
        Hashtbl.replace flows flow d;
        d
  in
  match
    for i = 0 to n - 1 do
      let code = Transform.classify_row t.memo arena i in
      if code < 0 then incr dropped
      else begin
        let kind = Arena.kind_code arena i in
        let ts = Arena.ts arena i in
        let ctx = Arena.ctx_id arena i in
        let flow = Arena.flow_id arena i in
        let size = Arena.size arena i in
        (* Directional accounting on the raw kind: what the host's
           syscalls actually moved over each flow. *)
        if kind = code_send then begin
          let d = dirs_of flow in
          d.out_rows <- d.out_rows + 1;
          d.out_bytes <- d.out_bytes + size
        end
        else if kind = code_receive then begin
          let d = dirs_of flow in
          d.in_rows <- d.in_rows + 1;
          d.in_bytes <- d.in_bytes + size
        end;
        (* A row merges into the previous kept row of its context when
           the downstream engine would merge them into one vertex: both
           classify to SEND (or both to END) on the same flow. Any
           other kept row of the context breaks the run — conservative
           where the engine is cleverer (partial receives), which only
           leaves merges for the engine to do itself. *)
        let merged =
          (code = code_send || code = code_end)
          &&
          match Hashtbl.find_opt last ctx with
          | Some (prev, prev_code) when prev_code = code && prev.flow = flow ->
              prev.size <- prev.size + size;
              incr coalesced;
              true
          | Some _ | None -> false
        in
        if not merged then begin
          let o = { kind; ts; ctx; flow; size } in
          rev_out := o :: !rev_out;
          incr kept;
          Hashtbl.replace last ctx (o, code)
        end
      end
    done
  with
  | () ->
      let out = Arena.create_sid ~capacity:(max 16 !kept) (Arena.host_sid arena) in
      List.iter
        (fun o -> Arena.append out ~kind:o.kind ~ts:o.ts ~ctx:o.ctx ~flow:o.flow ~size:o.size)
        (List.rev !rev_out);
      let local = ref 0 in
      let boundary =
        Hashtbl.fold
          (fun flow d acc ->
            if d.out_rows > 0 && d.in_rows > 0 then begin
              (* Both directions observed here: the interaction never
                 leaves the host, nothing for upper tiers to resolve. *)
              incr local;
              acc
            end
            else
              Boundary.entry_of_flow_id flow ~out_rows:d.out_rows
                ~out_bytes:d.out_bytes ~in_rows:d.in_rows ~in_bytes:d.in_bytes
              :: acc)
          flows []
        |> List.sort compare
      in
      {
        arena = out;
        boundary;
        rows_in = n;
        rows_dropped = !dropped;
        rows_coalesced = !coalesced;
        local_flows = !local;
        fallback = false;
      }
  | exception Over_budget ->
      {
        arena;
        boundary = Boundary.empty;
        rows_in = n;
        rows_dropped = 0;
        rows_coalesced = 0;
        local_flows = 0;
        fallback = true;
      }
