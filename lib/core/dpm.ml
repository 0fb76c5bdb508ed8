module Activity = Trace.Activity
module Address = Simnet.Address
module Ground_truth = Trace.Ground_truth
module Sim_time = Simnet.Sim_time

(* A logical message: its sending entity and instant, and (unless it leaves
   the traced perimeter, like an END) its receiving entity and instant. *)
type message = {
  mid : int;
  src : Activity.context option;  (* None for BEGIN: sender untraced *)
  send_ts : Sim_time.t;  (* BEGIN: the entry receive's timestamp *)
  dst : Activity.context option;  (* None for END: receiver untraced *)
  recv_ts : Sim_time.t;
  is_begin : bool;
  is_end : bool;
}

module Context_table = Hashtbl.Make (struct
  type t = Activity.context

  let equal = Activity.equal_context
  let hash = Activity.hash_context
end)

type t = {
  messages : message array;
  edges : int list array;  (* adjacency: message index -> successors *)
  begins : int list;
}

(* Pair SEND/RECEIVE syscalls into logical messages: FIFO per flow with
   byte counting, consecutive same-flow sends merged (first timestamp
   kept), receive completion at the last chunk — the same n-to-n treatment
   the engine applies, standalone. *)
let pair_messages activities =
  let messages = ref [] in
  let next_mid = ref 0 in
  let fresh ~src ~send_ts ~dst ~recv_ts ~is_begin ~is_end =
    let m = { mid = !next_mid; src; send_ts; dst; recv_ts; is_begin; is_end } in
    incr next_mid;
    messages := m :: !messages;
    m
  in
  (* outstanding send bytes per flow: (send ctx, first ts, remaining) *)
  let outstanding : (Activity.context * Sim_time.t * int ref) Queue.t Address.Flow_table.t =
    Address.Flow_table.create 64
  in
  let last_send : (Activity.context * Sim_time.t * int ref) option Address.Flow_table.t =
    Address.Flow_table.create 64
  in
  let queue_of flow =
    match Address.Flow_table.find_opt outstanding flow with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Address.Flow_table.replace outstanding flow q;
        q
  in
  let last_end : (Activity.context * Sim_time.t) option ref = ref None in
  List.iter
    (fun (a : Activity.t) ->
      match a.kind with
      | Activity.Begin ->
          ignore
            (fresh ~src:None ~send_ts:a.timestamp ~dst:(Some a.context) ~recv_ts:a.timestamp
               ~is_begin:true ~is_end:false)
      | Activity.End_ -> (
          (* merge consecutive END syscalls of one response *)
          match !last_end with
          | Some (ctx, _) when Activity.equal_context ctx a.context -> ()
          | _ ->
              last_end := Some (a.context, a.timestamp);
              ignore
                (fresh ~src:(Some a.context) ~send_ts:a.timestamp ~dst:None
                   ~recv_ts:a.timestamp ~is_begin:false ~is_end:true))
      | Activity.Send -> (
          last_end := None;
          let flow = a.message.flow in
          match Address.Flow_table.find_opt last_send flow with
          | Some (Some (ctx, _, remaining))
            when Activity.equal_context ctx a.context && !remaining > 0 ->
              remaining := !remaining + a.message.size
          | _ ->
              let entry = (a.context, a.timestamp, ref a.message.size) in
              Queue.push entry (queue_of flow);
              Address.Flow_table.replace last_send flow (Some entry))
      | Activity.Receive -> (
          let flow = a.message.flow in
          let q = queue_of flow in
          if not (Queue.is_empty q) then begin
            let _, _, remaining = Queue.peek q in
            remaining := !remaining - a.message.size;
            if !remaining <= 0 then begin
              let ctx, send_ts, _ = Queue.pop q in
              (match Address.Flow_table.find_opt last_send flow with
              | Some (Some (_, ts, _)) when Sim_time.equal ts send_ts ->
                  Address.Flow_table.replace last_send flow None
              | _ -> ());
              ignore
                (fresh ~src:(Some ctx) ~send_ts ~dst:(Some a.context) ~recv_ts:a.timestamp
                   ~is_begin:false ~is_end:false)
            end
          end))
    activities;
  List.rev !messages

let build collection =
  let merged =
    List.concat_map Trace.Log.to_list collection
    |> List.stable_sort Activity.compare_by_time
  in
  let messages = Array.of_list (pair_messages merged) in
  (* per entity: arrivals and departures in time order *)
  let arrivals : (Sim_time.t * int) list ref Context_table.t = Context_table.create 64 in
  let departures : (Sim_time.t * int) list ref Context_table.t = Context_table.create 64 in
  let note table ctx ts idx =
    match Context_table.find_opt table ctx with
    | Some l -> l := (ts, idx) :: !l
    | None -> Context_table.replace table ctx (ref [ (ts, idx) ])
  in
  Array.iteri
    (fun i m ->
      (match m.dst with Some ctx -> note arrivals ctx m.recv_ts i | None -> ());
      match m.src with Some ctx -> note departures ctx m.send_ts i | None -> ())
    messages;
  let edges = Array.make (Array.length messages) [] in
  (* DPM pairing: each arrival links to every departure of the same entity
     until the entity's next arrival. *)
  Context_table.iter
    (fun ctx arr ->
      let sorted l = List.sort (fun (a, _) (b, _) -> Sim_time.compare a b) !l in
      let arr = sorted arr in
      let dep =
        match Context_table.find_opt departures ctx with Some d -> sorted d | None -> []
      in
      let rec walk arr =
        match arr with
        | [] -> ()
        | (t_in, idx_in) :: rest ->
            let t_next = match rest with (t, _) :: _ -> Some t | [] -> None in
            let inside (t, _) =
              Sim_time.(t >= t_in)
              && match t_next with Some tn -> Sim_time.(t < tn) | None -> true
            in
            let succs = List.filter inside dep |> List.map snd in
            edges.(idx_in) <- succs;
            walk rest
      in
      walk arr)
    arrivals;
  let begins =
    Array.to_list (Array.mapi (fun i m -> (i, m)) messages)
    |> List.filter_map (fun (i, m) -> if m.is_begin then Some i else None)
  in
  { messages; edges; begins }

let message_count t = Array.length t.messages

type path_stats = {
  paths_found : int;
  real_paths : int;
  phantom_paths : int;
  truncated : bool;
}

(* Turn a path (message index list, in order) into per-entity visit
   intervals, first-touch order. *)
let visits_of_path t path =
  let order = ref [] in
  let table = Hashtbl.create 8 in
  let touch ctx ts =
    let key = (ctx.Activity.host, ctx.program, ctx.pid, ctx.tid) in
    match Hashtbl.find_opt table key with
    | Some (c, lo, hi) -> Hashtbl.replace table key (c, Sim_time.min lo ts, Sim_time.max hi ts)
    | None ->
        order := key :: !order;
        Hashtbl.replace table key (ctx, ts, ts)
  in
  List.iter
    (fun idx ->
      let m = t.messages.(idx) in
      (match m.dst with Some ctx -> touch ctx m.recv_ts | None -> ());
      match m.src with Some ctx -> touch ctx m.send_ts | None -> ())
    path;
  List.rev_map
    (fun key ->
      let ctx, lo, hi = Hashtbl.find table key in
      { Ground_truth.context = ctx; begin_ts = lo; end_ts = hi })
    !order

let evaluate ?(max_paths = 10_000) ?tolerance ~ground_truth t =
  let paths = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let rec dfs idx acc =
    if !count >= max_paths then truncated := true
    else begin
      let m = t.messages.(idx) in
      let acc = idx :: acc in
      if m.is_end then begin
        incr count;
        paths := List.rev acc :: !paths
      end
      else List.iter (fun succ -> dfs succ acc) t.edges.(idx)
    end
  in
  List.iter (fun b -> dfs b []) t.begins;
  let visits_list = List.rev_map (visits_of_path t) !paths in
  let verdict =
    Accuracy.check_visits ?tolerance
      ~requests:(Ground_truth.requests ground_truth)
      visits_list
  in
  {
    paths_found = !count;
    real_paths = verdict.Accuracy.correct;
    phantom_paths = verdict.Accuracy.false_positives;
    truncated = !truncated;
  }
