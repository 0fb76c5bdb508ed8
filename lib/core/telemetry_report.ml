module R = Telemetry.Registry

let labels_cell labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let tables families =
  let counters = Report.table ~title:"telemetry: counters" ~columns:[ "metric"; "labels"; "value" ] in
  let gauges = Report.table ~title:"telemetry: gauges" ~columns:[ "metric"; "labels"; "value" ] in
  let hists =
    Report.table ~title:"telemetry: histograms"
      ~columns:[ "metric"; "labels"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
  in
  let counted = ref 0 and gauged = ref 0 and histed = ref 0 in
  List.iter
    (fun (f : R.family) ->
      List.iter
        (fun (s : R.sample) ->
          match s.value with
          | R.Counter c ->
              incr counted;
              Report.add_row counters [ f.name; labels_cell s.labels; Report.cell_int c ]
          | R.Gauge g ->
              incr gauged;
              Report.add_row gauges
                [ f.name; labels_cell s.labels; Report.cell_float ~decimals:3 g ]
          | R.Hist h ->
              incr histed;
              Report.add_row hists
                [
                  f.name;
                  labels_cell s.labels;
                  Report.cell_int h.count;
                  Report.cell_float ~decimals:6 (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count);
                  Report.cell_float ~decimals:6 h.p50;
                  Report.cell_float ~decimals:6 h.p90;
                  Report.cell_float ~decimals:6 h.p99;
                  Report.cell_float ~decimals:6 h.max_v;
                ])
        f.samples)
    families;
  List.filter_map
    (fun (n, t) -> if !n > 0 then Some t else None)
    [ (counted, counters); (gauged, gauges); (histed, hists) ]

type format = [ `Prom | `Json | `Report ]

let formats = [ ("prom", `Prom); ("json", `Json); ("report", `Report) ]

let export format families =
  match format with
  | `Prom -> Telemetry.Export.to_prometheus families
  | `Json -> Telemetry.Export.to_json_string families ^ "\n"
  | `Report -> String.concat "\n" (List.map Report.render (tables families))
