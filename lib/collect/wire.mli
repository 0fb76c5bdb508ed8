(** Byte transport for the collection plane.

    {!Simnet.Tcp} models syscalls and link occupancy but carries sizes,
    not bytes; actual contents travel in a side channel keyed by
    (connection, direction), exactly as {!Simnet.Messaging} ships its
    typed payloads. Each direction's bytes wait in a
    {!Trace.Binary_format.writer}, the byte queue the frame decoders use
    too. [send] pushes the bytes and issues chunked
    [tcp_sendmsg] syscalls for their length — so shipping a frame
    consumes real simulated bandwidth and, on traced nodes, probe
    overhead (unless the sending process is exempted); [recv] performs
    one [tcp_recvmsg] and hands back exactly the bytes it covered,
    preserving whatever coalescing or splitting the stream produced. *)

type t

val create : Simnet.Tcp.stack -> t
val stack : t -> Simnet.Tcp.stack

val send :
  t ->
  Simnet.Tcp.socket ->
  proc:Simnet.Proc.t ->
  ?chunk:int ->
  string ->
  k:(unit -> unit) ->
  unit
(** Ship the bytes as [ceil (len / chunk)] send syscalls (default chunk
    8192); [k] fires after the last one is accepted. Empty strings send
    nothing. *)

val recv :
  t ->
  Simnet.Tcp.socket ->
  proc:Simnet.Proc.t ->
  ?max:int ->
  k:(string -> unit) ->
  unit ->
  unit
(** One recv syscall of at most [max] bytes (default 8192). [k ""]
    signals that the peer closed and the stream is drained. *)
