module Analysis = Core.Analysis
module Json = Core.Json

type mix_delta = {
  name : string;
  signature : string;
  count_a : int;
  count_b : int;
  freq_a : float;
  freq_b : float;
}

type t = {
  bundle_a : string;
  bundle_b : string;
  total_a : int;
  total_b : int;
  mix : mix_delta list;
  reports : Analysis.pair list;
  culprit : Analysis.suspect option;
}

let ( let* ) = Result.bind

let total = List.fold_left (fun acc (p : Analysis.profile) -> acc + p.Analysis.count) 0

let count_of profiles signature =
  total
    (List.filter (fun (p : Analysis.profile) -> String.equal p.Analysis.signature signature) profiles)

let diff a b =
  let* pa = Reader.profiles a in
  let* pb = Reader.profiles b in
  let total_a = total pa and total_b = total pb in
  let freq n count = if n = 0 then 0.0 else float_of_int count /. float_of_int n in
  (* One row per signature: B's patterns, then those only A has. *)
  let rows =
    pb @ List.filter (fun (p : Analysis.profile) -> count_of pb p.Analysis.signature = 0) pa
  in
  let mix =
    List.map
      (fun { Analysis.name; signature; _ } ->
        let count_a = count_of pa signature and count_b = count_of pb signature in
        {
          name;
          signature;
          count_a;
          count_b;
          freq_a = freq total_a count_a;
          freq_b = freq total_b count_b;
        })
      rows
    |> List.sort (fun x y ->
           compare
             (Float.abs (y.freq_b -. y.freq_a), y.name, y.signature)
             (Float.abs (x.freq_b -. x.freq_a), x.name, x.signature))
  in
  (* Without a pattern filter, the only failure is an empty pairing:
     no pattern with profiles in both runs, hence no culprit. *)
  let reports =
    Result.value (Analysis.compare_runs ~baseline:pa ~observed:pb ()) ~default:[]
  in
  Ok
    {
      bundle_a = Reader.display a;
      bundle_b = Reader.display b;
      total_a;
      total_b;
      mix;
      reports;
      culprit = Analysis.culprit reports;
    }

let pp ppf d =
  Format.fprintf ppf "@[<v>A: %s (%d paths)@,B: %s (%d paths)@," d.bundle_a d.total_a d.bundle_b
    d.total_b;
  Format.fprintf ppf "@,pattern mix:";
  List.iter
    (fun m ->
      Format.fprintf ppf "@,  %-48s %6d -> %6d  (%5.1f%% -> %5.1f%%)" m.name m.count_a m.count_b
        (m.freq_a *. 100.0) (m.freq_b *. 100.0))
    d.mix;
  List.iter
    (fun { Analysis.baseline; observed; report } ->
      Format.fprintf ppf "@,@,pattern %s (%d vs %d paths):@,%a" observed.Analysis.name
        baseline.Analysis.count observed.Analysis.count Analysis.pp_report report)
    d.reports;
  (match d.culprit with
  | Some s ->
      Format.fprintf ppf "@,@,culprit: %s (severity %.2f) — %s"
        (Analysis.subject_label s.Analysis.subject)
        s.Analysis.severity s.Analysis.reason
  | None -> Format.fprintf ppf "@,@,culprit: none (no shared pattern with profiles)");
  Format.fprintf ppf "@]"

let to_json d =
  Json.Obj
    [
      ("bundle_a", Json.String d.bundle_a);
      ("bundle_b", Json.String d.bundle_b);
      ("total_a", Json.Int d.total_a);
      ("total_b", Json.Int d.total_b);
      ( "mix",
        Json.List
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("pattern", Json.String m.name);
                   ("count_a", Json.Int m.count_a);
                   ("count_b", Json.Int m.count_b);
                   ("freq_a", Json.Float m.freq_a);
                   ("freq_b", Json.Float m.freq_b);
                 ])
             d.mix) );
      ( "patterns",
        Json.List
          (List.map
             (fun { Analysis.baseline; observed; report } ->
               Json.Obj
                 ([
                    ("pattern", Json.String observed.Analysis.name);
                    ("count_a", Json.Int baseline.Analysis.count);
                    ("count_b", Json.Int observed.Analysis.count);
                  ]
                 @ Analysis.report_fields report))
             d.reports) );
      ("culprit", match d.culprit with Some s -> Analysis.suspect_to_json s | None -> Json.Null);
    ]
