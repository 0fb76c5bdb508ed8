(* Tests for the tooling surface: JSON emission, CAG export, swimlane
   rendering, and oracle persistence. *)

module H = Test_helpers.Helpers
module Json = Core.Json
module Report = Core.Report
module Cag_export = Core.Cag_export
module Cag_render = Core.Cag_render
module Ground_truth = Trace.Ground_truth
module ST = Simnet.Sim_time

let qtest = QCheck_alcotest.to_alcotest

let one_cag () =
  let engine, _ = H.correlate_raw (H.logs_of_request ()) in
  List.hd (Core.Cag_engine.finished engine)

(* ---- Json ---- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "integral float" "3.0" (Json.to_string (Json.Float 3.0));
  Alcotest.(check string) "nan becomes null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_escaping () =
  Alcotest.(check string) "quotes" {|"a\"b"|} (Json.escape_string {|a"b|});
  Alcotest.(check string) "backslash" {|"a\\b"|} (Json.escape_string {|a\b|});
  Alcotest.(check string) "newline" {|"a\nb"|} (Json.escape_string "a\nb");
  Alcotest.(check string) "control" "\"a\\u0001b\"" (Json.escape_string "a\001b")

let test_json_compound () =
  let j = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("e", Json.List []) ] in
  Alcotest.(check string) "compact" {|{"xs":[1,2],"e":[]}|} (Json.to_string j);
  let pretty = Json.to_string ~indent:true j in
  Alcotest.(check bool) "indented has newlines" true (H.contains pretty "\n  \"xs\"")

let prop_json_no_raw_control_chars =
  QCheck.Test.make ~name:"escaped strings contain no raw control chars" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 40))
    (fun s ->
      let e = Json.escape_string s in
      let ok = ref true in
      String.iteri
        (fun i c -> if i > 0 && i < String.length e - 1 && Char.code c < 0x20 then ok := false)
        e;
      !ok)

(* ---- Report CSV ---- *)

let test_csv_plain () =
  let t = Report.table ~title:"t" ~columns:[ "a"; "b" ] in
  Report.add_row t [ "1"; "2" ];
  Alcotest.(check string) "no quoting needed" "a,b\n1,2\n" (Report.to_csv t)

let test_csv_escaping () =
  let t = Report.table ~title:"t" ~columns:[ "name"; "value" ] in
  Report.add_row t [ "has,comma"; "plain" ];
  Report.add_row t [ "has\"quote"; "has\nnewline" ];
  Report.add_row t [ "has\rcr"; "m{le=\"0.1\",x=\"a,b\"}" ];
  let csv = Report.to_csv t in
  let expected =
    "name,value\n\"has,comma\",plain\n\"has\"\"quote\",\"has\nnewline\"\n\"has\rcr\",\"m{le=\"\"0.1\"\",x=\"\"a,b\"\"}\"\n"
  in
  Alcotest.(check string) "RFC 4180 quoting" expected csv

(* A toy CSV reader implementing the quoting rules, to prove round-trip. *)
let parse_csv s =
  let rows = ref [] and row = ref [] and cell = Buffer.create 16 in
  let n = String.length s in
  let flush_cell () =
    row := Buffer.contents cell :: !row;
    Buffer.clear cell
  in
  let flush_row () =
    flush_cell ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '"' ->
        incr i;
        let closed = ref false in
        while not !closed do
          if !i >= n then closed := true
          else if s.[!i] = '"' then
            if !i + 1 < n && s.[!i + 1] = '"' then begin
              Buffer.add_char cell '"';
              i := !i + 2
            end
            else begin
              closed := true;
              incr i
            end
          else begin
            Buffer.add_char cell s.[!i];
            incr i
          end
        done;
        decr i
    | ',' -> flush_cell ()
    | '\n' -> flush_row ()
    | c -> Buffer.add_char cell c);
    incr i
  done;
  if Buffer.length cell > 0 || !row <> [] then flush_row ();
  List.rev !rows

let test_csv_roundtrip () =
  let cells =
    [ [ "plain"; "a,b"; "q\"uote" ]; [ "nl\nnl"; "cr\rcr"; "both\"\n,\"" ] ]
  in
  let t = Report.table ~title:"t" ~columns:[ "c1"; "c2"; "c3" ] in
  List.iter (Report.add_row t) cells;
  Alcotest.(check (list (list string)))
    "parses back to the same cells"
    ([ "c1"; "c2"; "c3" ] :: cells)
    (parse_csv (Report.to_csv t))

(* ---- Cag_export ---- *)

let test_export_schema () =
  let cag = one_cag () in
  match Cag_export.cag_to_json cag with
  | Json.Obj fields ->
      let get k = List.assoc k fields in
      Alcotest.(check bool) "finished" true (get "finished" = Json.Bool true);
      (match get "vertices" with
      | Json.List vs -> Alcotest.(check int) "vertex count" (Core.Cag.size cag) (List.length vs)
      | _ -> Alcotest.fail "vertices not a list");
      (match get "edges" with
      | Json.List es ->
          Alcotest.(check int) "edge count"
            (List.length (Core.Cag.edges cag))
            (List.length es)
      | _ -> Alcotest.fail "edges not a list");
      (match get "route" with
      | Json.String r -> Alcotest.(check string) "route" "httpd>java>mysqld>java>httpd" r
      | _ -> Alcotest.fail "route not a string")
  | _ -> Alcotest.fail "not an object"

let test_export_edge_indices_valid () =
  let cag = one_cag () in
  match Cag_export.cag_to_json cag with
  | Json.Obj fields -> (
      let n = Core.Cag.size cag in
      match List.assoc "edges" fields with
      | Json.List es ->
          List.iter
            (fun e ->
              match e with
              | Json.Obj ef -> (
                  match (List.assoc "from" ef, List.assoc "to" ef) with
                  | Json.Int f, Json.Int t ->
                      Alcotest.(check bool) "indices in range" true
                        (f >= 0 && f < n && t >= 0 && t < n && f < t)
                  | _ -> Alcotest.fail "bad edge fields")
              | _ -> Alcotest.fail "edge not an object")
            es
      | _ -> Alcotest.fail "edges not a list")
  | _ -> Alcotest.fail "not an object"

(* ---- Cag_render ---- *)

let test_render_lanes () =
  let cag = one_cag () in
  let out = Cag_render.render ~width:40 cag in
  let lines = String.split_on_char '\n' out in
  (* header + 3 lanes + scale + trailing empty *)
  Alcotest.(check int) "line count" 6 (List.length lines);
  Alcotest.(check bool) "web lane" true (H.contains out "web/httpd[10]");
  Alcotest.(check bool) "app lane" true (H.contains out "app/java[21]");
  Alcotest.(check bool) "db lane" true (H.contains out "db/mysqld[31]");
  Alcotest.(check bool) "begin marker" true (H.contains out "B");
  Alcotest.(check bool) "end marker" true (H.contains out "E");
  (* BEGIN must be the first marker on the web lane *)
  let web_line = List.find (fun l -> H.contains l "web/httpd") lines in
  let first_letter =
    String.to_seq web_line
    |> Seq.filter (fun c -> c = 'B' || c = 'S' || c = 'R' || c = 'E')
    |> Seq.uncons
  in
  match first_letter with
  | Some ('B', _) -> ()
  | _ -> Alcotest.fail "web lane must start at BEGIN"

let test_render_width_clamped () =
  let cag = one_cag () in
  let out = Cag_render.render ~width:1 cag in
  Alcotest.(check bool) "non-empty at minimal width" true (String.length out > 0)

let test_render_with_skew_correction () =
  (* Under skew, app lane letters can land outside the web lane's span;
     with correction the receive of the app tier must sit between the
     web tier's send and receive columns. *)
  let logs = H.logs_of_request ~askew:300_000_000 () in
  let engine, _ = H.correlate_raw logs in
  let cag = List.hd (Core.Cag_engine.finished engine) in
  let est = Core.Skew_estimator.estimate [ cag ] in
  let corrected = Cag_render.render ~width:60 ~skew:est cag in
  (* crude check: in the corrected rendering, the app lane's first R is not
     in the last 10 columns (where raw skew would push it) *)
  let lines = String.split_on_char '\n' corrected in
  let app_line = List.find (fun l -> H.contains l "app/java") lines in
  (match String.index_opt app_line 'R' with
  | Some i -> Alcotest.(check bool) "R inside the span" true (i < String.length app_line - 10)
  | None -> Alcotest.fail "no R on app lane");
  ignore (Cag_render.render cag)

(* ---- Ground_truth persistence ---- *)

let test_gt_save_load_roundtrip () =
  let gt = Ground_truth.create () in
  Ground_truth.begin_visit gt ~id:3 ~kind:"ViewItem" ~context:H.web_ctx ~ts:(ST.of_ns 100);
  Ground_truth.end_visit gt ~id:3 ~context:H.web_ctx ~ts:(ST.of_ns 900);
  Ground_truth.begin_visit gt ~id:3 ~kind:"ViewItem" ~context:H.app_ctx ~ts:(ST.of_ns 200);
  Ground_truth.end_visit gt ~id:3 ~context:H.app_ctx ~ts:(ST.of_ns 800);
  Ground_truth.complete gt ~id:3;
  Ground_truth.begin_visit gt ~id:7 ~kind:"PutBid" ~context:H.web_ctx ~ts:(ST.of_ns 2000);
  Ground_truth.end_visit gt ~id:7 ~context:H.web_ctx ~ts:(ST.of_ns 2500);
  Ground_truth.complete gt ~id:7;
  let path = Filename.temp_file "gt" ".txt" in
  Ground_truth.save gt ~path;
  (match Ground_truth.load ~path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check int) "count" 2 (Ground_truth.count loaded);
      let rs = Ground_truth.requests loaded in
      let orig = Ground_truth.requests gt in
      List.iter2
        (fun (a : Ground_truth.request) (b : Ground_truth.request) ->
          Alcotest.(check int) "id" a.id b.id;
          Alcotest.(check string) "kind" a.kind b.kind;
          List.iter2
            (fun (va : Ground_truth.visit) (vb : Ground_truth.visit) ->
              Alcotest.(check bool) "context" true
                (Trace.Activity.equal_context va.context vb.context);
              Alcotest.(check int) "begin" (ST.to_ns va.begin_ts) (ST.to_ns vb.begin_ts);
              Alcotest.(check int) "end" (ST.to_ns va.end_ts) (ST.to_ns vb.end_ts))
            a.visits b.visits)
        orig rs);
  Sys.remove path

let test_gt_load_errors () =
  let path = Filename.temp_file "gt" ".txt" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "visit h p 1 1 0 0\n";
  (match Ground_truth.load ~path with
  | Error e -> Alcotest.(check bool) "visit before request" true (H.contains e "before any")
  | Ok _ -> Alcotest.fail "accepted orphan visit");
  write "request x ViewItem\n";
  (match Ground_truth.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad id");
  write "garbage line\n";
  (match Ground_truth.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  Sys.remove path

let test_gt_full_cycle_accuracy () =
  (* simulate -> save oracle -> reload -> score saved correlation: the
     CLI's offline workflow. *)
  let outcome =
    Tiersim.Scenario.run
      { Tiersim.Scenario.default with Tiersim.Scenario.clients = 10; time_scale = 0.02 }
  in
  let path = Filename.temp_file "gt" ".txt" in
  Ground_truth.save outcome.Tiersim.Scenario.ground_truth ~path;
  match Ground_truth.load ~path with
  | Error e -> Alcotest.fail e
  | Ok gt ->
      let cfg = Core.Correlator.config ~transform:outcome.transform () in
      let result = Core.Correlator.correlate cfg outcome.logs in
      let verdict = Core.Accuracy.check ~ground_truth:gt result.Core.Correlator.cags in
      Alcotest.(check (float 0.0)) "100% through the file" 1.0 verdict.Core.Accuracy.accuracy;
      Sys.remove path

let () =
  Alcotest.run "export"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "compound" `Quick test_json_compound;
          qtest prop_json_no_raw_control_chars;
        ] );
      ( "report_csv",
        [
          Alcotest.test_case "plain" `Quick test_csv_plain;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
        ] );
      ( "cag_export",
        [
          Alcotest.test_case "schema" `Quick test_export_schema;
          Alcotest.test_case "edge indices" `Quick test_export_edge_indices_valid;
        ] );
      ( "cag_render",
        [
          Alcotest.test_case "lanes" `Quick test_render_lanes;
          Alcotest.test_case "width clamped" `Quick test_render_width_clamped;
          Alcotest.test_case "skew-corrected" `Quick test_render_with_skew_correction;
        ] );
      ( "ground_truth_files",
        [
          Alcotest.test_case "roundtrip" `Quick test_gt_save_load_roundtrip;
          Alcotest.test_case "load errors" `Quick test_gt_load_errors;
          Alcotest.test_case "full offline cycle" `Quick test_gt_full_cycle_accuracy;
        ] );
    ]
