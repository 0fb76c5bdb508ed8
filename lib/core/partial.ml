module Activity = Trace.Activity
module Arena = Trace.Arena

type t = { memo : Transform.memo }

let create transform = { memo = Transform.memo transform }

type result = { arena : Arena.t; rows_coalesced : int }

(* Output rows buffered mutably so a run head can keep growing until its
   run breaks; appended into a fresh arena at the end. *)
type orow = { kind : int; ts : int; ctx : int; flow : int; mutable size : int }

let code_send = Activity.kind_to_code Activity.Send
let code_end = Activity.kind_to_code Activity.End_

let reduce t arena =
  let n = Arena.length arena in
  let last : (int, orow * int) Hashtbl.t = Hashtbl.create 64 in
  let rev_out = ref [] in
  let kept = ref 0 in
  let coalesced = ref 0 in
  for i = 0 to n - 1 do
    let code = Transform.classify_row t.memo arena i in
    (* a negative code is a row the transform would drop: prefiltered *)
    if code >= 0 then begin
      let ctx = Arena.ctx_id arena i in
      let flow = Arena.flow_id arena i in
      let size = Arena.size arena i in
      (* A row merges into the previous kept row of its context when the
         downstream engine would merge them into one vertex: both
         classify to SEND (or both to END) on the same flow. Any other
         kept row of the context breaks the run — conservative where the
         engine is cleverer (partial receives), which only leaves merges
         for the engine to do itself. *)
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
        let o = { kind = Arena.kind_code arena i; ts = Arena.ts arena i; ctx; flow; size } in
        rev_out := o :: !rev_out;
        incr kept;
        Hashtbl.replace last ctx (o, code)
      end
    end
  done;
  let out = Arena.create_sid ~capacity:(max 16 !kept) (Arena.host_sid arena) in
  List.iter
    (fun o -> Arena.append out ~kind:o.kind ~ts:o.ts ~ctx:o.ctx ~flow:o.flow ~size:o.size)
    (List.rev !rev_out);
  { arena = out; rows_coalesced = !coalesced }
