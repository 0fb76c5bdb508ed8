(** Machine-readable exports of causal paths and analysis results.

    Dashboards and downstream tooling (Jaeger-style viewers, notebooks)
    consume paths as JSON; this module defines that schema:

    {v
    { "cag_id": 0, "finished": true, "duration_ns": ...,
      "vertices": [ { "id": 0, "kind": "BEGIN", "timestamp_ns": ...,
                      "host": ..., "program": ..., "pid": ..., "tid": ...,
                      "src": "ip:port", "dst": "ip:port", "size": ... }, ... ],
      "edges": [ { "from": 0, "to": 1, "relation": "context" }, ... ] }
    v}

    Vertex ids are CAG-local indices in causal order. *)

val cag_to_json : Cag.t -> Json.t

val paths_to_json : Cag.t list -> Json.t
(** A JSON array of CAGs. *)

val verdict_to_json : Accuracy.verdict -> Json.t
