type ip = int

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      (* strict decimal digits only: [int_of_string_opt] alone would also
         admit [0x1f]/[0o17]/[0b11] prefixes and [1_000] separators,
         which dotted-quad rendering never produces *)
      let octet x =
        let decimal = String.length x > 0 && String.for_all (fun c -> c >= '0' && c <= '9') x in
        match if decimal then int_of_string_opt x else None with
        | Some v when v >= 0 && v <= 255 -> v
        | Some _ | None -> invalid_arg ("Address.ip_of_string: bad octet in " ^ s)
      in
      match (octet a, octet b, octet c, octet d) with
      | a, b, c, d -> (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
  | _ -> invalid_arg ("Address.ip_of_string: " ^ s)

let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

let ip_to_int ip = ip

let ip_of_int n =
  if n < 0 || n > 0xffff_ffff then invalid_arg "Address.ip_of_int: out of range";
  n

let ip_equal = Int.equal
let pp_ip ppf ip = Format.pp_print_string ppf (ip_to_string ip)

type endpoint = { ip : ip; port : int }

let endpoint ip port = { ip; port }
let endpoint_equal a b = a == b || (ip_equal a.ip b.ip && Int.equal a.port b.port)

let pp_endpoint ppf e = Format.fprintf ppf "%a:%d" pp_ip e.ip e.port

type flow = { src : endpoint; dst : endpoint }

let flow ~src ~dst = { src; dst }
let reverse f = { src = f.dst; dst = f.src }
(* flows materialised from the trace intern tables are canonical shared
   records, so the physical check settles most hot-path comparisons *)
let flow_equal a b = a == b || (endpoint_equal a.src b.src && endpoint_equal a.dst b.dst)

let flow_hash f = Hashtbl.hash (f.src.ip, f.src.port, f.dst.ip, f.dst.port)
let pp_flow ppf f = Format.fprintf ppf "%a-%a" pp_endpoint f.src pp_endpoint f.dst

module Flow_table = Hashtbl.Make (struct
  type t = flow

  let equal = flow_equal
  let hash = flow_hash
end)
