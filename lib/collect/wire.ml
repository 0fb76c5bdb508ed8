module Tcp = Simnet.Tcp
module B = Trace.Binary_format

(* Per-direction byte queue: contents pushed by the sender, popped by
   the receiver in the amounts Tcp.recv reports. Tcp is reliable and
   in-order, so the queue and the simulated stream stay in lockstep. *)
type t = {
  stack : Tcp.stack;
  streams : (int * bool, B.writer) Hashtbl.t;  (* (conn, client-to-server?) *)
  r : B.reader;
}

let create stack = { stack; streams = Hashtbl.create 64; r = B.reader "" ~pos:0 ~len:0 }
let stack t = t.stack

let channel t sock ~sending =
  let c2s = if sending then Tcp.is_client_side sock else not (Tcp.is_client_side sock) in
  let key = (Tcp.conn_id sock, c2s) in
  match Hashtbl.find_opt t.streams key with
  | Some q -> q
  | None ->
      let q = B.w_create 4096 in
      Hashtbl.replace t.streams key q;
      q

let send t sock ~proc ?(chunk = 8192) bytes ~k =
  if chunk <= 0 then invalid_arg "Wire.send: chunk must be positive";
  let len = String.length bytes in
  if len = 0 then k ()
  else begin
    B.w_raw (channel t sock ~sending:true) bytes;
    let rec loop remaining =
      if remaining <= 0 then k ()
      else
        let n = min chunk remaining in
        Tcp.send t.stack sock ~proc ~size:n ~k:(fun () -> loop (remaining - n))
    in
    loop len
  end

let recv t sock ~proc ?(max = 8192) ~k () =
  if max <= 0 then invalid_arg "Wire.recv: max must be positive";
  Tcp.recv t.stack sock ~proc ~max ~k:(fun n ->
      if n = 0 then k ""
      else begin
        let q = channel t sock ~sending:false in
        B.w_read q t.r;
        let bytes = B.get_bytes t.r n in
        B.w_drop q n;
        k bytes
      end)
