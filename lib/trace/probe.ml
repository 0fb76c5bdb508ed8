module Tcp = Simnet.Tcp
module Node = Simnet.Node
module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

type t = {
  mutable enabled : bool;
  overhead : Sim_time.span;
  only : string list option;
  mutable exempt : string list;  (* programs never logged nor slowed *)
  node_logs : (string, Log.t) Hashtbl.t;
  mutable count : int;
  mutable listeners : (Activity.t -> unit) list;  (* registration order *)
  emitted : (string, R.counter) Hashtbl.t;
      (* per-host handles for pt_probe_activities_total, cached so the
         per-syscall cost is one hash lookup and an increment *)
}

let emitted_counter t hostname =
  match Hashtbl.find_opt t.emitted hostname with
  | Some c -> c
  | None ->
      let c =
        R.counter R.default ~help:"Activities logged by the TCP_TRACE probe"
          ~labels:[ ("host", hostname) ]
          "pt_probe_activities_total"
      in
      Hashtbl.replace t.emitted hostname c;
      c

let traced t node =
  match t.only with
  | None -> true
  | Some hosts -> List.exists (String.equal (Node.hostname node)) hosts

let log_for t node =
  let hostname = Node.hostname node in
  match Hashtbl.find_opt t.node_logs hostname with
  | Some log -> log
  | None ->
      let log = Log.create ~hostname in
      Hashtbl.replace t.node_logs hostname log;
      log

let exempted t program = List.exists (String.equal program) t.exempt

let on_syscall t (sc : Tcp.syscall) =
  if t.enabled && traced t sc.node && not (exempted t sc.proc.Simnet.Proc.program) then begin
    let kind =
      match sc.kind with Tcp.Syscall_send -> Activity.Send | Tcp.Syscall_recv -> Activity.Receive
    in
    let activity =
      {
        Activity.kind;
        timestamp = Node.local_time sc.node;
        context =
          {
            host = Node.hostname sc.node;
            program = sc.proc.Simnet.Proc.program;
            pid = sc.proc.pid;
            tid = sc.proc.tid;
          };
        message = { flow = sc.flow; size = sc.size };
      }
    in
    Log.append (log_for t sc.node) activity;
    t.count <- t.count + 1;
    R.incr (emitted_counter t activity.Activity.context.host);
    List.iter (fun f -> f activity) t.listeners
  end

let attach ~stack ?(overhead = Sim_time.us 20) ?only () =
  let t =
    {
      enabled = false;
      overhead;
      only;
      exempt = [];
      node_logs = Hashtbl.create 16;
      count = 0;
      listeners = [];
      emitted = Hashtbl.create 16;
    }
  in
  Tcp.add_observer stack (on_syscall t);
  Tcp.set_syscall_overhead stack (fun node proc ->
      if t.enabled && traced t node && not (exempted t proc.Simnet.Proc.program) then
        t.overhead
      else Sim_time.span_zero);
  t

let add_listener t f = t.listeners <- t.listeners @ [ f ]

let exempt_program t program =
  if not (exempted t program) then t.exempt <- program :: t.exempt
let enable t = t.enabled <- true

let logs t =
  Hashtbl.fold (fun _ log acc -> log :: acc) t.node_logs []
  |> List.sort (fun a b -> String.compare (Log.hostname a) (Log.hostname b))

let activity_count t = t.count
