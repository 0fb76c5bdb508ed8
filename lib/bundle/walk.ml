module Activity = Trace.Activity
module Sim_time = Simnet.Sim_time
module Cag = Core.Cag
module Latency = Core.Latency
module Analysis = Core.Analysis
module Json = Core.Json

type record_ref = { host : string; index : int; activity : Activity.t }

type hop = {
  comp : Latency.component;
  span_ns : int;
  share : float;
  at_vertex : Cag.vertex;
  records : record_ref list;
}

type view = {
  cag_id : int;
  pattern : string;
  duration_ns : int;
  deformed : bool;
  begin_records : record_ref list;
  hops : hop list;
}

let ( let* ) = Result.bind

let find_path decoded reader ?cag_id ?pattern ?(index = 0) () =
  let display = Reader.display reader in
  let path_of_id id ~missing =
    match
      List.find_opt (fun (p : Codec.path) -> p.Codec.cag.Cag.cag_id = id) decoded.Codec.paths
    with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "%s: %s" display missing)
  in
  match cag_id with
  | Some id -> path_of_id id ~missing:(Printf.sprintf "no path with id %d" id)
  | None ->
      let* profiles = Reader.profiles reader in
      let* profile =
        match pattern with
        | None -> (
            match profiles with
            | p :: _ -> Ok p
            | [] -> Error (Printf.sprintf "%s: bundle holds no patterns" display))
        | Some name -> (
            let name_of (p : Analysis.profile) = p.Analysis.name in
            match List.find_opt (fun p -> String.equal (name_of p) name) profiles with
            | Some p -> Ok p
            | None ->
                Error
                  (Printf.sprintf "%s: no pattern %S (have: %s)" display name
                     (String.concat ", " (List.map name_of profiles))))
      in
      let* id =
        match List.nth_opt profile.Analysis.cag_ids index with
        | Some id -> Ok id
        | None ->
            Error
              (Printf.sprintf "%s: pattern %S has %d members, index %d out of range" display
                 profile.Analysis.name (List.length profile.Analysis.cag_ids) index)
      in
      path_of_id id ~missing:(Printf.sprintf "pattern member %d missing from paths" id)

let view reader ?cag_id ?pattern ?index () =
  let* decoded = Reader.paths reader in
  let* path = find_path decoded reader ?cag_id ?pattern ?index () in
  let cag = path.Codec.cag in
  if not (Cag.is_finished cag) then
    Error (Printf.sprintf "%s: path %d is unfinished" (Reader.display reader) cag.Cag.cag_id)
  else begin
    let records_of v =
      let* resolved = Reader.resolve_links reader ~link_hosts:decoded.Codec.link_hosts v in
      Ok (List.map (fun (host, index, activity) -> { host; index; activity }) resolved)
    in
    let duration_ns = Sim_time.span_ns (Cag.duration cag) in
    let* hops =
      try Ok (Latency.critical_path cag) with Invalid_argument msg ->
        Error (Printf.sprintf "%s: path %d: %s" (Reader.display reader) cag.Cag.cag_id msg)
    in
    let* rev_hops =
      List.fold_left
        (fun acc (h : Latency.hop) ->
          let* acc = acc in
          let span_ns = Sim_time.span_ns h.Latency.span in
          let share =
            if duration_ns = 0 then 0.0 else float_of_int span_ns /. float_of_int duration_ns
          in
          let* records = records_of h.Latency.child in
          Ok ({ comp = h.Latency.comp; span_ns; share; at_vertex = h.Latency.child; records } :: acc))
        (Ok []) hops
    in
    let* begin_records = records_of (Cag.root cag) in
    Ok
      {
        cag_id = cag.Cag.cag_id;
        pattern = Core.Pattern.name_of cag;
        duration_ns;
        deformed = Cag.is_deformed cag;
        begin_records;
        hops = List.rev rev_hops;
      }
  end

let pp_record ppf r =
  let a = r.activity in
  Format.fprintf ppf "%s[%d] %a" r.host r.index Activity.pp a

let pp ppf v =
  Format.fprintf ppf "@[<v>path %d  %s  %.3f ms%s" v.cag_id v.pattern
    (float_of_int v.duration_ns /. 1e6)
    (if v.deformed then "  (deformed)" else "");
  Format.fprintf ppf "@,BEGIN";
  List.iter (fun r -> Format.fprintf ppf "@,    <- %a" pp_record r) v.begin_records;
  List.iter
    (fun h ->
      Format.fprintf ppf "@,%-16s %10.3f ms  %5.1f%%"
        (Latency.component_label h.comp)
        (float_of_int h.span_ns /. 1e6)
        (h.share *. 100.0);
      List.iter (fun r -> Format.fprintf ppf "@,    <- %a" pp_record r) h.records)
    v.hops;
  Format.fprintf ppf "@]"

let record_to_json r =
  Json.Obj
    [
      ("host", Json.String r.host);
      ("index", Json.Int r.index);
      ("kind", Json.String (Activity.kind_to_string r.activity.Activity.kind));
      ("timestamp_ns", Json.Int (Sim_time.to_ns r.activity.timestamp));
      ("program", Json.String r.activity.context.program);
      ("size", Json.Int r.activity.message.size);
    ]

let to_json v =
  Json.Obj
    [
      ("cag_id", Json.Int v.cag_id);
      ("pattern", Json.String v.pattern);
      ("duration_ns", Json.Int v.duration_ns);
      ("deformed", Json.Bool v.deformed);
      ("begin_records", Json.List (List.map record_to_json v.begin_records));
      ( "hops",
        Json.List
          (List.map
             (fun h ->
               Json.Obj
                 [
                   ("component", Json.String (Latency.component_label h.comp));
                   ("span_ns", Json.Int h.span_ns);
                   ("share", Json.Float h.share);
                   ("records", Json.List (List.map record_to_json h.records));
                 ])
             v.hops) );
    ]
