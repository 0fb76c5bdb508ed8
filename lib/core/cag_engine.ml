module Activity = Trace.Activity
module Intern = Trace.Intern
module Sim_time = Simnet.Sim_time

type stats = {
  cags_started : int;
  cags_finished : int;
  send_merges : int;
  end_merges : int;
  receive_merges : int;
  partial_receives : int;
  unmatched_receives : int;
  thread_reuse_blocked : int;
  orphans : int;
  crossed_boundaries : int;
  mmap_entries : int;
  live_vertices : int;
  peak_live_vertices : int;
  evicted_sends : int;
}

(* Both indexes are keyed on process-wide {!Intern} ids, which hash to
   themselves: no string hashing or structural context comparison on the
   correlation hot path. *)
type t = {
  mmap : Cag.vertex Deque.t Intern.Table.t;  (* flow id -> outstanding SENDs *)
  cmap : Cag.vertex Intern.Table.t;  (* context id -> latest vertex *)
  mutable rev_finished : Cag.t list;
  open_cags : (int, Cag.t) Hashtbl.t;  (* unfinished, by cag_id *)
  mutable next_cag_id : int;
  mutable cags_started : int;
  mutable cags_finished : int;
  mutable send_merges : int;
  mutable end_merges : int;
  mutable receive_merges : int;
  mutable partial_receives : int;
  mutable unmatched_receives : int;
  mutable thread_reuse_blocked : int;
  mutable orphans : int;
  mutable crossed_boundaries : int;
  mutable mmap_count : int;
  mutable live_vertices : int;
  mutable peak_live : int;
  mutable evicted_sends : int;
}

let create () =
  {
    mmap = Intern.Table.create 1024;
    cmap = Intern.Table.create 256;
    rev_finished = [];
    open_cags = Hashtbl.create 64;
    next_cag_id = 0;
    cags_started = 0;
    cags_finished = 0;
    send_merges = 0;
    end_merges = 0;
    receive_merges = 0;
    partial_receives = 0;
    unmatched_receives = 0;
    thread_reuse_blocked = 0;
    orphans = 0;
    crossed_boundaries = 0;
    mmap_count = 0;
    live_vertices = 0;
    peak_live = 0;
    evicted_sends = 0;
  }

let has_mmap_send t flow =
  match Intern.Table.find t.mmap flow with
  | q -> not (Deque.is_empty q)
  | exception Not_found -> false

let mmap_deque t flow =
  match Intern.Table.find_opt t.mmap flow with
  | Some q -> q
  | None ->
      let q = Deque.create () in
      Intern.Table.replace t.mmap flow q;
      q

let mmap_push t flow vertex =
  Deque.push_back (mmap_deque t flow) vertex;
  t.mmap_count <- t.mmap_count + 1

(* Re-register a SEND whose earlier bytes were already fully consumed but
   which just grew by a merged syscall. It logically precedes any newer
   outstanding SEND on the flow, hence the front. *)
let mmap_push_front t flow vertex =
  Deque.push_front (mmap_deque t flow) vertex;
  t.mmap_count <- t.mmap_count + 1

let mmap_front t flow =
  match Intern.Table.find_opt t.mmap flow with
  | Some q -> Deque.peek_front q
  | None -> None

let mmap_pop t flow =
  match Intern.Table.find_opt t.mmap flow with
  | Some q when not (Deque.is_empty q) ->
      ignore (Deque.pop_front q);
      t.mmap_count <- t.mmap_count - 1;
      if Deque.is_empty q then Intern.Table.remove t.mmap flow
  | Some _ | None -> ()

let bump_live t n =
  t.live_vertices <- t.live_vertices + n;
  if t.live_vertices > t.peak_live then t.peak_live <- t.live_vertices

(* The CAG a vertex belongs to, unless that CAG has already been output:
   attaching new activities to a finished CAG would corrupt emitted
   results (DESIGN.md clarification on recycled entities after discarded
   noise). *)
let open_cag_of (v : Cag.vertex) =
  match v.Cag.cag with Some cag when not (Cag.is_finished cag) -> Some cag | _ -> None

let same_open_cag a b =
  match (open_cag_of a, open_cag_of b) with
  | Some ca, Some cb -> ca == cb
  | _ -> false

let cmap_parent t ctx = Intern.Table.find_opt t.cmap ctx
let cmap_set t ctx v = Intern.Table.replace t.cmap ctx v

(* Attach [v] under [parent]'s open CAG (if any) with a context edge. *)
let attach_context t ~parent v =
  match open_cag_of parent with
  | Some cag ->
      Cag.Builder.adopt cag v;
      Cag.Builder.add_edge Cag.Context_edge ~parent ~child:v
  | None -> t.orphans <- t.orphans + 1

let handle_begin t ctx flow source (a : Activity.t) =
  let root = Cag.Builder.fresh_row ~ctx ~flow ~source a in
  let cag = Cag.Builder.create ~cag_id:t.next_cag_id root in
  t.next_cag_id <- t.next_cag_id + 1;
  t.cags_started <- t.cags_started + 1;
  Hashtbl.replace t.open_cags cag.Cag.cag_id cag;
  bump_live t 1;
  cmap_set t ctx root

let finish_cag t cag =
  (* A SEND whose bytes were never fully matched by a RECEIVE means the
     receiving side of the interaction is missing from the input (log
     loss, an agent outage): the path still closes at its END, but it is
     a truncated rendition of the real request and must say so. *)
  let unmatched (v : Cag.vertex) =
    Activity.equal_kind v.Cag.activity.Activity.kind Activity.Send && v.Cag.unreceived > 0
  in
  let rec any i = i < cag.Cag.vertex_count && (unmatched cag.Cag.verts.(i) || any (i + 1)) in
  if any 0 then Cag.Builder.mark_deformed cag;
  Cag.Builder.finish cag;
  t.cags_finished <- t.cags_finished + 1;
  t.rev_finished <- cag :: t.rev_finished;
  Hashtbl.remove t.open_cags cag.Cag.cag_id;
  t.live_vertices <- t.live_vertices - Cag.size cag

let handle_end t ctx flow source (a : Activity.t) =
  match cmap_parent t ctx with
  | Some parent
    when Activity.equal_kind parent.Cag.activity.Activity.kind Activity.End_
         && parent.Cag.flow_id = flow ->
      (* A multi-part response: fold this syscall into the END vertex. *)
      Cag.Builder.grow_send parent a.message.size;
      Cag.Builder.add_source parent source;
      t.end_merges <- t.end_merges + 1
  | Some parent ->
      let v = Cag.Builder.fresh_row ~ctx ~flow ~source a in
      bump_live t 1;
      (match open_cag_of parent with
      | Some cag ->
          Cag.Builder.adopt cag v;
          Cag.Builder.add_edge Cag.Context_edge ~parent ~child:v;
          cmap_set t ctx v;
          finish_cag t cag
      | None ->
          t.orphans <- t.orphans + 1;
          cmap_set t ctx v)
  | None ->
      let v = Cag.Builder.fresh_row ~ctx ~flow ~source a in
      bump_live t 1;
      t.orphans <- t.orphans + 1;
      cmap_set t ctx v

let handle_send t ctx flow source (a : Activity.t) =
  match cmap_parent t ctx with
  | Some parent
    when Activity.equal_kind parent.Cag.activity.Activity.kind Activity.Send
         && parent.Cag.flow_id = flow ->
      (* Consecutive sends of one logical message: accumulate size. If the
         earlier bytes were already fully matched (a fast receiver drained
         them before this syscall was ranked — possible because Rule 1
         outranks Rule 2), the vertex left the mmap and must re-enter it.
         A receive read that straddled into this syscall's bytes drained
         it past zero: the vertex re-enters only if bytes are still owed. *)
      let was_drained = parent.Cag.unreceived <= 0 in
      Cag.Builder.grow_send parent a.message.size;
      Cag.Builder.add_source parent source;
      if was_drained && parent.Cag.unreceived > 0 then mmap_push_front t flow parent;
      t.send_merges <- t.send_merges + 1
  | Some parent ->
      let v = Cag.Builder.fresh_row ~ctx ~flow ~source a in
      bump_live t 1;
      attach_context t ~parent v;
      cmap_set t ctx v;
      mmap_push t flow v
  | None ->
      (* First activity seen in this context (e.g. an untraced peer): the
         SEND still enters the mmap so its RECEIVEs correlate. *)
      let v = Cag.Builder.fresh_row ~ctx ~flow ~source a in
      bump_live t 1;
      t.orphans <- t.orphans + 1;
      cmap_set t ctx v;
      mmap_push t flow v

(* The existing RECEIVE vertex of [sender]'s message in context [ctx],
   if the message was completed once already and has since grown. *)
let existing_receive_of t ctx sender =
  let is_that_child (kind, (c : Cag.vertex)) =
    kind = Cag.Message_edge
    && Activity.equal_kind c.Cag.activity.Activity.kind Activity.Receive
    && c.Cag.ctx_id = ctx
  in
  match List.find_opt is_that_child sender.Cag.children with
  | Some (_, child) -> (
      (* Only reuse it while it is still the context's latest activity;
         otherwise fall back to a fresh vertex. *)
      match cmap_parent t ctx with Some v when v == child -> Some child | _ -> None)
  | None -> None

let handle_receive t ctx flow source (a : Activity.t) =
  match mmap_front t flow with
  | None -> t.unmatched_receives <- t.unmatched_receives + 1
  | Some sender ->
      let remaining = Cag.Builder.consume sender a.message.size in
      if remaining > 0 then begin
        (* No vertex yet: park the chunk on the sender so the completing
           RECEIVE vertex can claim the whole message's provenance. *)
        Cag.Builder.stash_pending_source sender source;
        t.partial_receives <- t.partial_receives + 1
      end
      else begin
        if remaining < 0 then t.crossed_boundaries <- t.crossed_boundaries + 1;
        mmap_pop t flow;
        let full_size = sender.Cag.activity.Activity.message.size in
        let chunks = Cag.Builder.take_pending_sources sender in
        match existing_receive_of t ctx sender with
        | Some v ->
            (* The message completed before (its SEND grew afterwards):
               extend the same RECEIVE vertex to the new completion. *)
            Cag.Builder.refresh_receive v ~timestamp:a.timestamp ~size:full_size;
            List.iter (Cag.Builder.add_source v) chunks;
            Cag.Builder.add_source v source;
            t.receive_merges <- t.receive_merges + 1
        | None ->
            let v = Cag.Builder.fresh_row ~ctx ~flow ~source a in
            bump_live t 1;
            (* The completing chunk created the vertex; earlier chunks of
               the same message precede it in observation order. *)
            Cag.Builder.add_earlier_sources v chunks;
            Cag.Builder.set_full_size v full_size;
            (match open_cag_of sender with
            | Some cag ->
                Cag.Builder.adopt cag v;
                Cag.Builder.add_edge Cag.Message_edge ~parent:sender ~child:v;
                (* Thread-reuse check (pseudo-code lines 29-32): the adjacent
                   context edge is added only if both parents share the CAG. *)
                (match cmap_parent t ctx with
                | Some parent_cntx when same_open_cag parent_cntx sender ->
                    Cag.Builder.add_edge Cag.Context_edge ~parent:parent_cntx ~child:v
                | Some _ -> t.thread_reuse_blocked <- t.thread_reuse_blocked + 1
                | None -> ())
            | None -> t.orphans <- t.orphans + 1);
            cmap_set t ctx v
      end

(* [step_ids] is the native entry: callers that already hold the row's
   interned ids (an arena-driven feed) pay no intern lookup at all. *)
let step_ids t ~ctx ~flow ~source (a : Activity.t) =
  match a.kind with
  | Activity.Begin -> handle_begin t ctx flow source a
  | Activity.End_ -> handle_end t ctx flow source a
  | Activity.Send -> handle_send t ctx flow source a
  | Activity.Receive -> handle_receive t ctx flow source a

let step t (a : Activity.t) =
  step_ids t
    ~ctx:(Intern.context_id a.context)
    ~flow:(Intern.flow_id a.message.flow)
    ~source:Cag.no_row a

let live_vertices t = t.live_vertices
let mmap_entries t = t.mmap_count

let gc t ~older_than =
  let evicted = ref 0 in
  let stale_flows = ref [] in
  Intern.Table.iter
    (fun flow q ->
      (* Entries are FIFO per flow, so stale ones sit at the front. *)
      let continue = ref true in
      while !continue do
        match Deque.peek_front q with
        | Some (v : Cag.vertex)
          when Sim_time.(v.Cag.activity.Activity.timestamp < older_than) ->
            ignore (Deque.pop_front q);
            t.mmap_count <- t.mmap_count - 1;
            incr evicted;
            (match v.Cag.cag with
            | None -> t.live_vertices <- t.live_vertices - 1
            | Some _ -> (
                t.evicted_sends <- t.evicted_sends + 1;
                (* The owning CAG can no longer match this SEND's receives:
                   if it is still open it will stay unfinished, so flag it
                   deformed rather than silently losing it. *)
                match open_cag_of v with
                | Some cag -> Cag.Builder.mark_deformed cag
                | None -> ()))
        | Some _ | None -> continue := false
      done;
      if Deque.is_empty q then stale_flows := flow :: !stale_flows)
    t.mmap;
  List.iter (Intern.Table.remove t.mmap) !stale_flows;
  !evicted
let finished t = List.rev t.rev_finished
let finished_count t = t.cags_finished
let last_finished t = List.hd t.rev_finished

(* Ids grow in creation order, which is the order reported. *)
let unfinished t =
  List.sort
    (fun (a : Cag.t) (b : Cag.t) -> Int.compare a.Cag.cag_id b.Cag.cag_id)
    (Hashtbl.fold (fun _ c acc -> c :: acc) t.open_cags [])

let stats t =
  {
    cags_started = t.cags_started;
    cags_finished = t.cags_finished;
    send_merges = t.send_merges;
    end_merges = t.end_merges;
    receive_merges = t.receive_merges;
    partial_receives = t.partial_receives;
    unmatched_receives = t.unmatched_receives;
    thread_reuse_blocked = t.thread_reuse_blocked;
    orphans = t.orphans;
    crossed_boundaries = t.crossed_boundaries;
    mmap_entries = t.mmap_count;
    live_vertices = t.live_vertices;
    peak_live_vertices = t.peak_live;
    evicted_sends = t.evicted_sends;
  }
