module Address = Simnet.Address
module R = Telemetry.Registry

(* One process-wide table per attribute domain. Ids are dense, stable for
   the life of the process and never recycled, so they can be stored in
   flat arrays ({!Arena}), hashed as ints, and compared with [==]. All
   mutation is serialised on a single mutex; dune's parallel query pool
   and the sharded correlator's worker domains intern concurrently. *)

let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* A growable array. Slots are written before the id is handed out (both
   under [mu]), so [get] for any previously-issued id always finds the
   entry even if a concurrent insert is growing the table. *)
type 'a vec = { mutable arr : 'a array; mutable len : int }

let vec_make dummy n = { arr = Array.make n dummy; len = 0 }

let vec_push v x =
  if v.len = Array.length v.arr then begin
    let bigger = Array.make (2 * Array.length v.arr) v.arr.(0) in
    Array.blit v.arr 0 bigger 0 v.len;
    v.arr <- bigger
  end;
  v.arr.(v.len) <- x;
  v.len <- v.len + 1

(* ---- strings (hostnames and program names) ---- *)

let string_tbl : (string, int) Hashtbl.t = Hashtbl.create 256
let string_rev : string vec = vec_make "" 256

(* ---- contexts ---- *)

(* parts are (host string id, program string id, pid, tid); [ctx_rev]
   additionally keeps one canonical {!Activity.context} record per id so
   materialising a record allocates nothing and [==] works as a context
   fast path. *)
let ctx_tbl : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 256

let dummy_ctx = { Activity.host = ""; program = ""; pid = 0; tid = 0 }
let ctx_rev : ((int * int * int * int) * Activity.context) vec =
  vec_make ((0, 0, 0, 0), dummy_ctx) 256

(* ---- flows ---- *)

(* keyed by the two endpoints packed as [ip lsl 16 lor port] (48 bits
   each, so the pair hashes and compares as two immediate ints). *)
let flow_tbl : (int * int, int) Hashtbl.t = Hashtbl.create 256

let dummy_flow =
  Address.flow
    ~src:(Address.endpoint (Address.ip_of_int 0) 0)
    ~dst:(Address.endpoint (Address.ip_of_int 0) 0)

let flow_rev : ((int * int * int * int) * Address.flow) vec =
  vec_make ((0, 0, 0, 0), dummy_flow) 256

(* ---- telemetry (registered lazily; inserts are rare) ---- *)

let strings_gauge =
  lazy (R.gauge R.default ~help:"Interned strings in the process-wide table" "pt_intern_strings")

let contexts_gauge =
  lazy (R.gauge R.default ~help:"Interned contexts in the process-wide table" "pt_intern_contexts")

let flows_gauge =
  lazy (R.gauge R.default ~help:"Interned flows in the process-wide table" "pt_intern_flows")

(* ---- strings ---- *)

(* [*_u] variants assume [mu] is held: the hot entry points take the lock
   once for a whole multi-table operation. *)
let string_id_u s =
  match Hashtbl.find_opt string_tbl s with
  | Some i -> i
  | None ->
      let i = string_rev.len in
      vec_push string_rev s;
      Hashtbl.replace string_tbl s i;
      R.set (Lazy.force strings_gauge) (float_of_int (i + 1));
      i

let string_id s = locked (fun () -> string_id_u s)

let string_of_id i =
  locked (fun () ->
      if i < 0 || i >= string_rev.len then invalid_arg "Intern.string_of_id: unknown id";
      string_rev.arr.(i))

(* ---- contexts ---- *)

let context_id_parts_u ~host ~program ~pid ~tid =
  if host < 0 || host >= string_rev.len then invalid_arg "Intern.context_id_parts: bad host id";
  if program < 0 || program >= string_rev.len then
    invalid_arg "Intern.context_id_parts: bad program id";
  let key = (host, program, pid, tid) in
  match Hashtbl.find_opt ctx_tbl key with
  | Some i -> i
  | None ->
      let i = ctx_rev.len in
      let canonical =
        { Activity.host = string_rev.arr.(host); program = string_rev.arr.(program); pid; tid }
      in
      vec_push ctx_rev (key, canonical);
      Hashtbl.replace ctx_tbl key i;
      R.set (Lazy.force contexts_gauge) (float_of_int (i + 1));
      i

let context_id_parts ~host ~program ~pid ~tid =
  locked (fun () -> context_id_parts_u ~host ~program ~pid ~tid)

let context_id (c : Activity.context) =
  locked (fun () ->
      let host = string_id_u c.host in
      let program = string_id_u c.program in
      context_id_parts_u ~host ~program ~pid:c.pid ~tid:c.tid)

let ctx_entry i =
  locked (fun () ->
      if i < 0 || i >= ctx_rev.len then invalid_arg "Intern.context_of_id: unknown id";
      ctx_rev.arr.(i))

let context_of_id i = snd (ctx_entry i)
let context_parts_of_id i = fst (ctx_entry i)

let compare_context_id a b =
  if a = b then 0 else Activity.compare_context (context_of_id a) (context_of_id b)

(* ---- flows ---- *)

let pack_endpoint ip port = (ip lsl 16) lor (port land 0xffff)

let flow_id_parts ~src_ip ~src_port ~dst_ip ~dst_port =
  let src_ip_v = Address.ip_of_int src_ip and dst_ip_v = Address.ip_of_int dst_ip in
  if src_port < 0 || src_port > 0xffff then invalid_arg "Intern.flow_id_parts: bad src port";
  if dst_port < 0 || dst_port > 0xffff then invalid_arg "Intern.flow_id_parts: bad dst port";
  locked (fun () ->
      let key = (pack_endpoint src_ip src_port, pack_endpoint dst_ip dst_port) in
      match Hashtbl.find_opt flow_tbl key with
      | Some i -> i
      | None ->
          let i = flow_rev.len in
          let canonical =
            Address.flow
              ~src:(Address.endpoint src_ip_v src_port)
              ~dst:(Address.endpoint dst_ip_v dst_port)
          in
          vec_push flow_rev ((src_ip, src_port, dst_ip, dst_port), canonical);
          Hashtbl.replace flow_tbl key i;
          R.set (Lazy.force flows_gauge) (float_of_int (i + 1));
          i)

let flow_id (f : Address.flow) =
  flow_id_parts ~src_ip:(Address.ip_to_int f.src.ip) ~src_port:f.src.port
    ~dst_ip:(Address.ip_to_int f.dst.ip) ~dst_port:f.dst.port

let flow_entry i =
  locked (fun () ->
      if i < 0 || i >= flow_rev.len then invalid_arg "Intern.flow_of_id: unknown id";
      flow_rev.arr.(i))

let flow_of_id i = snd (flow_entry i)
let flow_parts_of_id i = fst (flow_entry i)

let reverse_flow_id i =
  let src_ip, src_port, dst_ip, dst_port = flow_parts_of_id i in
  locked (fun () ->
      Hashtbl.find_opt flow_tbl (pack_endpoint dst_ip dst_port, pack_endpoint src_ip src_port))

let counts () = locked (fun () -> (string_rev.len, ctx_rev.len, flow_rev.len))

(* Ids are dense, so the identity is a perfect hash: lookups make no
   generic hash or comparison call. *)
module Table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)
