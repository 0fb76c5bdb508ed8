module Address = Simnet.Address
module Sim_time = Simnet.Sim_time

let to_line (a : Activity.t) =
  let f = a.message.flow in
  Printf.sprintf "%d %s %s %d %d %s %s:%d-%s:%d %d"
    (Sim_time.to_ns a.timestamp)
    a.context.host a.context.program a.context.pid a.context.tid
    (Activity.kind_to_string a.kind)
    (Address.ip_to_string f.src.ip)
    f.src.port
    (Address.ip_to_string f.dst.ip)
    f.dst.port a.message.size

let ( let* ) r f = Result.bind r f

(* Strict decimal, optionally '-'-signed — [int_of_string_opt] alone also
   accepts [0x1f]/[0o17]/[0b11] prefixes and [1_000] separators, none of
   which {!to_line} ever emits, so they must not parse back. *)
let is_strict_decimal s =
  let digits = if String.length s > 0 && s.[0] = '-' then String.sub s 1 (String.length s - 1) else s in
  String.length digits > 0 && String.for_all (fun c -> c >= '0' && c <= '9') digits

let parse_int field s =
  match if is_strict_decimal s then int_of_string_opt s else None with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s: %S" field s)

let parse_endpoint field s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad %s (no port): %S" field s)
  | Some i -> (
      let ip_str = String.sub s 0 i in
      let port_str = String.sub s (i + 1) (String.length s - i - 1) in
      let* port = parse_int (field ^ " port") port_str in
      let* port =
        if port >= 0 && port <= 65_535 then Ok port
        else Error (Printf.sprintf "bad %s port (out of range): %S" field port_str)
      in
      match Address.ip_of_string ip_str with
      | ip -> Ok (Address.endpoint ip port)
      | exception Invalid_argument msg -> Error msg)

let parse_flow s =
  (* The separator is the '-' between "ip:port" halves; ports and dotted
     quads never contain '-', so split on the single dash. *)
  match String.index_opt s '-' with
  | None -> Error (Printf.sprintf "bad flow (no '-'): %S" s)
  | Some i ->
      let* src = parse_endpoint "sender" (String.sub s 0 i) in
      let* dst = parse_endpoint "receiver" (String.sub s (i + 1) (String.length s - i - 1)) in
      Ok (Address.flow ~src ~dst)

let of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ ts; host; program; pid; tid; kind; flow; size ] ->
      let* ts = parse_int "timestamp" ts in
      let* pid = parse_int "pid" pid in
      let* tid = parse_int "tid" tid in
      let* kind =
        match Activity.kind_of_string kind with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "bad kind: %S" kind)
      in
      let* flow = parse_flow flow in
      let* size = parse_int "size" size in
      Ok
        {
          Activity.kind;
          timestamp = Sim_time.of_ns ts;
          context = { host; program; pid; tid };
          message = { flow; size };
        }
  | fields -> Error (Printf.sprintf "expected 8 fields, got %d" (List.length fields))
