type table = {
  title : string;
  columns : string list;
  mutable rev_rows : string list list;
}

let table ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Report.add_row: %d cells for %d columns in %S" (List.length row)
         (List.length t.columns) t.title);
  t.rev_rows <- row :: t.rev_rows

let rows t = List.rev t.rev_rows

let render t =
  let all = t.columns :: rows t in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.mapi (fun i _ -> width i) t.columns in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line row =
    let s = String.concat "  " (List.map2 pad row widths) in
    let rec rstrip i = if i > 0 && s.[i - 1] = ' ' then rstrip (i - 1) else i in
    String.sub s 0 (rstrip (String.length s))
  in
  let sep = String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.columns ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) (rows t);
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (line t.columns :: List.map line (rows t)) ^ "\n"

let cell_int = string_of_int
let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f
let cell_pct f = Printf.sprintf "%.1f%%" (f *. 100.0)
let cell_span s = Format.asprintf "%a" Simnet.Sim_time.pp_span s

(* Latency shares can legitimately leave [0,1] when clock skew pushes a
   hop's span negative (Aggregate.of_pattern's shares stay faithful to
   the data). Presentation clamps — and counts, so a skewed profile is visible in
   telemetry rather than silently rendered as a sane-looking percent. *)
let clamp_share ?(telemetry = Telemetry.Registry.default) f =
  if Float.is_nan f then begin
    Telemetry.Registry.incr
      (Telemetry.Registry.counter telemetry
         ~help:"Latency shares outside [0,1] clamped at the presentation layer"
         "pt_latency_share_out_of_range_total");
    0.0
  end
  else if f < 0.0 || f > 1.0 then begin
    Telemetry.Registry.incr
      (Telemetry.Registry.counter telemetry
         ~help:"Latency shares outside [0,1] clamped at the presentation layer"
         "pt_latency_share_out_of_range_total");
    Float.max 0.0 (Float.min 1.0 f)
  end
  else f
