type syscall_kind = Syscall_send | Syscall_recv

type waiter = { k : int -> unit; max : int }

type dir_state = {
  mutable available : int;
  waiters : waiter Queue.t;
  mutable remote_closed : bool;  (* sender side has closed; EOF after drain *)
}

type side = Client_side | Server_side

type conn = {
  id : int;
  client_node : Node.t;
  server_node : Node.t;
  client_ep : Address.endpoint;
  server_ep : Address.endpoint;
  c2s : dir_state;
  s2c : dir_state;
  mutable client_closed : bool;
  mutable server_closed : bool;
}

type socket = { conn : conn; side : side }

type syscall = {
  node : Node.t;
  proc : Proc.t;
  kind : syscall_kind;
  flow : Address.flow;
  size : int;
}

type listener = { node : Node.t; accept : socket -> unit }

type stack = {
  engine : Engine.t;
  listeners : (Address.endpoint, listener) Hashtbl.t;
  mutable observers : (syscall -> unit) list;  (* registration order *)
  mutable overhead : Node.t -> Proc.t -> Sim_time.span;
  mutable syscalls : int;
  mutable next_conn_id : int;
}

let create_stack ~engine =
  {
    engine;
    listeners = Hashtbl.create 16;
    observers = [];
    overhead = (fun _ _ -> Sim_time.span_zero);
    syscalls = 0;
    next_conn_id = 0;
  }

let add_observer t f = t.observers <- t.observers @ [ f ]
let set_syscall_overhead t f = t.overhead <- f
let notify t syscall = List.iter (fun f -> f syscall) t.observers

let listen t node ~port ~accept =
  let key = Address.endpoint (Node.ip node) port in
  if Hashtbl.mem t.listeners key then
    invalid_arg (Printf.sprintf "Tcp.listen: %s:%d already bound" (Node.hostname node) port);
  Hashtbl.replace t.listeners key { node; accept }

let unlisten t node ~port = Hashtbl.remove t.listeners (Address.endpoint (Node.ip node) port)

let fresh_dir () = { available = 0; waiters = Queue.create (); remote_closed = false }

let own_node sock =
  match sock.side with Client_side -> sock.conn.client_node | Server_side -> sock.conn.server_node

let peer_node sock =
  match sock.side with Client_side -> sock.conn.server_node | Server_side -> sock.conn.client_node

let local_endpoint sock =
  match sock.side with Client_side -> sock.conn.client_ep | Server_side -> sock.conn.server_ep

let peer_endpoint sock =
  match sock.side with Client_side -> sock.conn.server_ep | Server_side -> sock.conn.client_ep

let out_flow sock = Address.flow ~src:(local_endpoint sock) ~dst:(peer_endpoint sock)
let flip_side = function Client_side -> Server_side | Server_side -> Client_side
let peer_socket sock = { sock with side = flip_side sock.side }

(* Direction a socket writes into / reads from. *)
let out_dir sock =
  match sock.side with Client_side -> sock.conn.c2s | Server_side -> sock.conn.s2c

let in_dir sock =
  match sock.side with Client_side -> sock.conn.s2c | Server_side -> sock.conn.c2s

(* Instrumentation overhead is CPU work on the syscall's node: the probe
   handler executes in kernel context and competes for the cores, so its
   cost inflates under load — the effect behind the paper's Figs. 12-13. *)
let after_overhead t node proc k =
  let ov = t.overhead node proc in
  if Sim_time.span_ns ov <= 0 then k () else Cpu.submit (Node.cpu node) ~work:ov k

(* Deliver [k] through the sender's egress link then the receiver's ingress
   link, modelling serialisation at both NICs plus propagation. *)
let through_links ~src_node ~dst_node ~size k =
  Link.transmit (Node.tx src_node) ~size (fun () ->
      Link.transmit (Node.rx dst_node) ~size k)

(* Serve parked readers on [sock]'s inbound direction: data first, then EOF
   once the peer has closed and the buffer drained. *)
let wake_readers sock =
  let dir = in_dir sock in
  let continue = ref true in
  while !continue && not (Queue.is_empty dir.waiters) do
    if dir.available > 0 then begin
      let w = Queue.pop dir.waiters in
      let n = min w.max dir.available in
      dir.available <- dir.available - n;
      w.k n
    end
    else if dir.remote_closed then (Queue.pop dir.waiters).k 0
    else continue := false
  done

let send t sock ~proc ~size ~k =
  if size <= 0 then invalid_arg "Tcp.send: size must be positive";
  t.syscalls <- t.syscalls + 1;
  notify t { node = own_node sock; proc; kind = Syscall_send; flow = out_flow sock; size };
  let dir = out_dir sock in
  through_links ~src_node:(own_node sock) ~dst_node:(peer_node sock) ~size (fun () ->
      dir.available <- dir.available + size;
      wake_readers (peer_socket sock));
  after_overhead t (own_node sock) proc k

(* Completion of a recv syscall of [n] bytes: log the activity, then resume
   the caller after any instrumentation overhead. *)
let complete_recv t sock ~proc ~n ~k =
  t.syscalls <- t.syscalls + 1;
  let flow = Address.flow ~src:(peer_endpoint sock) ~dst:(local_endpoint sock) in
  notify t { node = own_node sock; proc; kind = Syscall_recv; flow; size = n };
  after_overhead t (own_node sock) proc (fun () -> k n)

let recv t sock ~proc ~max ~k =
  if max <= 0 then invalid_arg "Tcp.recv: max must be positive";
  let dir = in_dir sock in
  if dir.available > 0 then begin
    let n = min max dir.available in
    dir.available <- dir.available - n;
    complete_recv t sock ~proc ~n ~k
  end
  else if dir.remote_closed then
    ignore (Engine.schedule_after t.engine ~delay:Sim_time.span_zero (fun () -> k 0))
  else
    Queue.push
      { max; k = (fun n -> if n = 0 then k 0 else complete_recv t sock ~proc ~n ~k) }
      dir.waiters

let close _t sock =
  let already =
    match sock.side with
    | Client_side ->
        let a = sock.conn.client_closed in
        sock.conn.client_closed <- true;
        a
    | Server_side ->
        let a = sock.conn.server_closed in
        sock.conn.server_closed <- true;
        a
  in
  if not already then begin
    let dir = out_dir sock in
    (* FIN travels like a tiny segment; EOF is observable only after any
       in-flight data queued before it. *)
    through_links ~src_node:(own_node sock) ~dst_node:(peer_node sock) ~size:40 (fun () ->
        dir.remote_closed <- true;
        wake_readers (peer_socket sock))
  end

let connect t ~node ~proc ~dst ~k =
  ignore proc;
  match Hashtbl.find_opt t.listeners dst with
  | None -> invalid_arg (Format.asprintf "Tcp.connect: no listener at %a" Address.pp_endpoint dst)
  | Some listener ->
      let client_ep = Address.endpoint (Node.ip node) (Node.fresh_port node) in
      let conn_id = t.next_conn_id in
      t.next_conn_id <- conn_id + 1;
      let conn =
        {
          id = conn_id;
          client_node = node;
          server_node = listener.node;
          client_ep;
          server_ep = dst;
          c2s = fresh_dir ();
          s2c = fresh_dir ();
          client_closed = false;
          server_closed = false;
        }
      in
      let syn_size = 64 in
      through_links ~src_node:node ~dst_node:listener.node ~size:syn_size (fun () ->
          listener.accept { conn; side = Server_side };
          through_links ~src_node:listener.node ~dst_node:node ~size:syn_size (fun () ->
              k { conn; side = Client_side }))

let syscall_count t = t.syscalls
let conn_id sock = sock.conn.id
let is_client_side sock = match sock.side with Client_side -> true | Server_side -> false
