module Rng = Simnet.Rng
module Sim_time = Simnet.Sim_time
module R = Telemetry.Registry

(* Per-log drop so each host's losses are counted into
   pt_probe_activities_dropped_total{host=...}. The RNG draw order is the
   same as a whole-collection map (logs in list order, activities in
   timestamp order), so results are bit-identical to the pre-telemetry
   implementation for a given seed. *)
let drop_where ~pred collection =
  List.map
    (fun log ->
      let before = Log.length log in
      let mapped =
        match Log.map_activities (fun a -> if pred a then None else Some a) [ log ] with
        | [ l ] -> l
        | _ -> assert false
      in
      let dropped = before - Log.length mapped in
      if dropped > 0 then
        R.add
          (R.counter R.default ~help:"Activities dropped by loss injection"
             ~labels:[ ("host", Log.hostname log) ]
             "pt_probe_activities_dropped_total")
          dropped;
      mapped)
    collection

let drop ~rng ~p collection = drop_where ~pred:(fun _ -> Rng.bernoulli rng ~p) collection

let drop_kind ~rng ~p ~kind collection =
  drop_where
    ~pred:(fun a -> Activity.equal_kind a.Activity.kind kind && Rng.bernoulli rng ~p)
    collection

let silence ~host ~after collection =
  drop_where
    ~pred:(fun a ->
      String.equal a.Activity.context.host host && Sim_time.(a.Activity.timestamp > after))
    collection
