module Activity = Trace.Activity
module Address = Simnet.Address
module Sim_time = Simnet.Sim_time

let endpoint_str (e : Address.endpoint) = Format.asprintf "%a" Address.pp_endpoint e

let vertex_to_json (v : Cag.vertex) =
  let a = v.Cag.activity in
  Json.Obj
    [
      ("id", Json.Int v.Cag.pos);
      ("kind", Json.String (Activity.kind_to_string a.Activity.kind));
      ("timestamp_ns", Json.Int (Sim_time.to_ns a.timestamp));
      ("host", Json.String a.context.host);
      ("program", Json.String a.context.program);
      ("pid", Json.Int a.context.pid);
      ("tid", Json.Int a.context.tid);
      ("src", Json.String (endpoint_str a.message.flow.src));
      ("dst", Json.String (endpoint_str a.message.flow.dst));
      ("size", Json.Int a.message.size);
    ]

let cag_to_json cag =
  let edges =
    List.map
      (fun ((parent : Cag.vertex), kind, (child : Cag.vertex)) ->
        Json.Obj
          [
            ("from", Json.Int parent.Cag.pos);
            ("to", Json.Int child.Cag.pos);
            ( "relation",
              Json.String
                (match kind with Cag.Context_edge -> "context" | Cag.Message_edge -> "message") );
          ])
      (Cag.edges cag)
  in
  Json.Obj
    [
      ("cag_id", Json.Int cag.Cag.cag_id);
      ("finished", Json.Bool (Cag.is_finished cag));
      ("duration_ns", Json.Int (Sim_time.span_ns (Cag.duration cag)));
      ("route", Json.String (Pattern.name_of cag));
      ("vertices", Json.List (List.map vertex_to_json (Cag.vertices cag)));
      ("edges", Json.List edges);
    ]

let paths_to_json cags = Json.List (List.map cag_to_json cags)

let verdict_to_json (v : Accuracy.verdict) =
  Json.Obj
    [
      ("accuracy", Json.Float v.Accuracy.accuracy);
      ("correct", Json.Int v.correct);
      ("total_requests", Json.Int v.total_requests);
      ("false_positives", Json.Int v.false_positives);
      ("false_negatives", Json.Int v.false_negatives);
    ]
