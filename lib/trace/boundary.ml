module B = Binary_format

let magic = "PTBT"

type entry = {
  src_ip : int;
  src_port : int;
  dst_ip : int;
  dst_port : int;
  out_rows : int;
  out_bytes : int;
  in_rows : int;
  in_bytes : int;
}

type t = entry list

let empty : t = []

let flow_id e =
  Intern.flow_id_parts ~src_ip:e.src_ip ~src_port:e.src_port ~dst_ip:e.dst_ip
    ~dst_port:e.dst_port

let entry_of_flow_id id ~out_rows ~out_bytes ~in_rows ~in_bytes =
  let src_ip, src_port, dst_ip, dst_port = Intern.flow_parts_of_id id in
  { src_ip; src_port; dst_ip; dst_port; out_rows; out_bytes; in_rows; in_bytes }

let encode (t : t) =
  let buf = Buffer.create (32 + (16 * List.length t)) in
  Buffer.add_string buf magic;
  B.put_uvarint buf (List.length t);
  List.iter
    (fun e ->
      B.put_uvarint buf e.src_ip;
      B.put_uvarint buf e.src_port;
      B.put_uvarint buf e.dst_ip;
      B.put_uvarint buf e.dst_port;
      B.put_uvarint buf e.out_rows;
      B.put_uvarint buf e.out_bytes;
      B.put_uvarint buf e.in_rows;
      B.put_uvarint buf e.in_bytes)
    t;
  Buffer.contents buf

let decode data =
  B.decode_frame ~magic data ~pos:0 ~len:(String.length data) (fun r ->
      List.init (B.get_count r "boundary entries") (fun _ ->
          let src_ip = B.get_uvarint r in
          let src_port = B.get_uvarint r in
          let dst_ip = B.get_uvarint r in
          let dst_port = B.get_uvarint r in
          let out_rows = B.get_uvarint r in
          let out_bytes = B.get_uvarint r in
          let in_rows = B.get_uvarint r in
          let in_bytes = B.get_uvarint r in
          { src_ip; src_port; dst_ip; dst_port; out_rows; out_bytes; in_rows; in_bytes }))
