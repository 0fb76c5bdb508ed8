type delta = {
  comp : Latency.component;
  baseline_pct : float;
  observed_pct : float;
  change_pp : float;
}

type subject =
  | Tier of string
  | Tier_network of string
  | Interaction of { src : string; dst : string }

let subject_label = function
  | Tier t -> "tier " ^ t
  | Tier_network t -> "network of tier " ^ t
  | Interaction { src; dst } -> Printf.sprintf "interaction %s->%s" src dst

type suspect = { subject : subject; reason : string; severity : float }
type report = { deltas : delta list; suspects : suspect list }

let internal_threshold = 0.08
let interaction_threshold = 0.08
let collapse_threshold = -0.04

let union_components baseline observed =
  let keys = Hashtbl.create 16 in
  let order = ref [] in
  let note (c, _) =
    let key = Latency.component_label c in
    if not (Hashtbl.mem keys key) then begin
      Hashtbl.replace keys key ();
      order := c :: !order
    end
  in
  List.iter note baseline;
  List.iter note observed;
  List.rev !order

let lookup profile c =
  match List.find_opt (fun (c', _) -> Latency.equal_component c c') profile with
  | Some (_, v) -> v
  | None -> 0.0

let tiers_of deltas =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let note p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      order := p :: !order
    end
  in
  List.iter
    (fun d ->
      note d.comp.Latency.src;
      note d.comp.Latency.dst)
    deltas;
  List.rev !order

let pct x = x *. 100.0

let compare_profiles ~baseline ~observed =
  let deltas =
    union_components baseline observed
    |> List.map (fun c ->
           let b = lookup baseline c and o = lookup observed c in
           { comp = c; baseline_pct = b; observed_pct = o; change_pp = o -. b })
    |> List.sort (fun a b -> Float.compare (Float.abs b.change_pp) (Float.abs a.change_pp))
  in
  let internal_of tier =
    List.find_opt
      (fun d -> String.equal d.comp.Latency.src tier && String.equal d.comp.Latency.dst tier)
      deltas
  in
  let tier_suspects =
    List.filter_map
      (fun tier ->
        match internal_of tier with
        | Some d when d.change_pp >= internal_threshold ->
            Some
              {
                subject = Tier tier;
                reason =
                  Printf.sprintf "internal share %s rose %.0f%% -> %.0f%%"
                    (Latency.component_label d.comp)
                    (pct d.baseline_pct) (pct d.observed_pct);
                severity = d.change_pp;
              }
        | Some _ | None -> None)
      (tiers_of deltas)
  in
  let interaction_suspects =
    List.filter_map
      (fun d ->
        if
          (not (String.equal d.comp.Latency.src d.comp.Latency.dst))
          && d.change_pp >= interaction_threshold
        then
          Some
            {
              subject = Interaction { src = d.comp.Latency.src; dst = d.comp.Latency.dst };
              reason =
                Printf.sprintf
                  "share %s rose %.0f%% -> %.0f%%: admission at %s (queueing, thread pool) or \
                   the network between them"
                  (Latency.component_label d.comp)
                  (pct d.baseline_pct) (pct d.observed_pct) d.comp.Latency.dst;
              severity = d.change_pp;
            }
        else None)
      deltas
  in
  let network_suspects =
    List.filter_map
      (fun tier ->
        let touching =
          List.filter
            (fun d ->
              (not (String.equal d.comp.Latency.src d.comp.Latency.dst))
              && (String.equal d.comp.Latency.src tier || String.equal d.comp.Latency.dst tier))
            deltas
        in
        let rise = List.fold_left (fun acc d -> acc +. Float.max 0.0 d.change_pp) 0.0 touching in
        let grew = List.length (List.filter (fun d -> d.change_pp > 0.01) touching) in
        match internal_of tier with
        | Some d when rise >= 0.08 && grew >= 2 && d.change_pp <= collapse_threshold ->
            Some
              {
                subject = Tier_network tier;
                reason =
                  Printf.sprintf
                    "interactions around %s gained %.0f points across %d components while %s \
                     collapsed %.0f%% -> %.0f%%"
                    tier (pct rise) grew
                    (Latency.component_label d.comp)
                    (pct d.baseline_pct) (pct d.observed_pct);
                severity = rise;
              }
        | Some _ | None -> None)
      (tiers_of deltas)
  in
  let suspects =
    tier_suspects @ network_suspects @ interaction_suspects
    |> List.sort (fun a b -> Float.compare b.severity a.severity)
  in
  { deltas; suspects }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>component shares (baseline -> observed):";
  (* Shares clamp to [0,1] for display (see Report.clamp_share); change_pp
     stays faithful so a skew-driven shift is still visible as a delta. *)
  List.iter
    (fun d ->
      Format.fprintf ppf "@,  %-18s %5.1f%% -> %5.1f%%  (%+.1f)"
        (Latency.component_label d.comp)
        (pct (Report.clamp_share d.baseline_pct))
        (pct (Report.clamp_share d.observed_pct))
        (pct d.change_pp))
    r.deltas;
  (match r.suspects with
  | [] -> Format.fprintf ppf "@,no suspect: profiles are consistent"
  | suspects ->
      Format.fprintf ppf "@,suspects:";
      List.iter
        (fun s -> Format.fprintf ppf "@,  %-24s %s" (subject_label s.subject) s.reason)
        suspects);
  Format.fprintf ppf "@]"

(* ---- pattern profiles ---- *)

type component_stat = { comp : Latency.component; share : float; mean_s : float }

type profile = {
  name : string;
  signature : string;
  count : int;
  cag_ids : int list;
  mean_total_s : float;
  components : component_stat list;
}

let profile_to_json p =
  Json.Obj
    [
      ("name", Json.String p.name);
      ("signature", Json.String p.signature);
      ("count", Json.Int p.count);
      ("cag_ids", Json.List (List.map (fun i -> Json.Int i) p.cag_ids));
      ("mean_total_s", Json.Float p.mean_total_s);
      ( "components",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("src", Json.String c.comp.Latency.src);
                   ("dst", Json.String c.comp.Latency.dst);
                   ("share", Json.Float c.share);
                   ("mean_s", Json.Float c.mean_s);
                 ])
             p.components) );
    ]

let profiles_to_json profiles = Json.List (List.map profile_to_json profiles)

let ( let* ) = Result.bind

let component_of_json j =
  let* src = Json.string_field "src" j in
  let* dst = Json.string_field "dst" j in
  let* share = Json.float_field "share" j in
  let* mean_s = Json.float_field "mean_s" j in
  Ok { comp = { Latency.src; dst }; share; mean_s }

let profile_of_json j =
  let* name = Json.string_field "name" j in
  let* signature = Json.string_field "signature" j in
  let* count = Json.int_field "count" j in
  let* cag_ids = Json.list_field "cag_ids" j in
  let* cag_ids = Json.map_result (Json.as_int "cag_ids") cag_ids in
  let* mean_total_s = Json.float_field "mean_total_s" j in
  let* components = Json.list_field "components" j in
  let* components = Json.map_result component_of_json components in
  Ok { name; signature; count; cag_ids; mean_total_s; components }

let profiles_of_json = function
  | Json.List items -> Json.map_result profile_of_json items
  | _ -> Error "patterns section is not a list"

(* ---- comparing two runs ---- *)

type pair = { baseline : profile; observed : profile; report : report }

let shares profile = List.map (fun c -> (c.comp, c.share)) profile.components

let compare_runs ?pattern ~baseline ~observed () =
  let named run profiles =
    match pattern with
    | None -> Ok profiles
    | Some name -> (
        match List.filter (fun p -> String.equal p.name name) profiles with
        | [] -> Error (Printf.sprintf "pattern %S absent from the %s run" name run)
        | named -> Ok named)
  in
  let* baseline = named "baseline" baseline in
  let* observed = named "observed" observed in
  let pairs =
    List.filter_map
      (fun o ->
        match List.find_opt (fun b -> String.equal b.signature o.signature) baseline with
        | Some b when b.components <> [] && o.components <> [] ->
            Some
              {
                baseline = b;
                observed = o;
                report = compare_profiles ~baseline:(shares b) ~observed:(shares o);
              }
        | Some _ | None -> None)
      observed
  in
  if pairs = [] then Error "no pattern present in both runs" else Ok pairs

let culprit = function { report = { suspects = s :: _; _ }; _ } :: _ -> Some s | _ -> None

let suspect_to_json s =
  Json.Obj
    [
      ("subject", Json.String (subject_label s.subject));
      ("severity", Json.Float s.severity);
      ("reason", Json.String s.reason);
    ]

let report_fields r =
  let delta (d : delta) =
    Json.Obj
      [
        ("component", Json.String (Latency.component_label d.comp));
        ("baseline_pct", Json.Float d.baseline_pct);
        ("observed_pct", Json.Float d.observed_pct);
        ("change_pp", Json.Float d.change_pp);
      ]
  in
  [
    ("deltas", Json.List (List.map delta r.deltas));
    ("suspects", Json.List (List.map suspect_to_json r.suspects));
  ]
