(* The four workloads, and the generator that turns a workload and a seed
   into the files a measuring process loads: a PTB1 trace, the
   ground-truth oracle and a meta JSON with the entry points, window and
   accuracy tolerance. Sizes are fixed per workload; a smoke run cuts each
   to about 1/50 so the whole set checks in seconds. *)

module Sim_time = Simnet.Sim_time
module Json = Core.Json

type kind =
  | Offline  (** PTB1 bytes -> decode -> correlate -> classify -> aggregate. *)
  | Live  (** PTC1 frames -> collector decode -> online correlation. *)
  | Capture  (** Arenas -> store writer -> bundle pack, then a cold bundle read. *)

type t = {
  name : string;
  kind : kind;
  default_seed : int;
  window : Sim_time.span;
  tolerance : Sim_time.span;
  simulate : seed:int -> smoke:bool -> Trace.Log.collection * Trace.Ground_truth.t * Core.Transform.config;
}

let rubis ~mix ~clients ~time_scale ?(noise = Tiersim.Scenario.No_noise)
    ?(skew = Sim_time.span_zero) ~seed () =
  let spec =
    {
      Tiersim.Scenario.default with
      Tiersim.Scenario.name = "ptbench";
      clients;
      mix;
      time_scale;
      noise;
      skew;
      seed;
    }
  in
  let o = Tiersim.Scenario.run spec in
  (o.Tiersim.Scenario.logs, o.ground_truth, o.transform)

(* RUBiS Browse_only at 1000 clients: the paper's own setting at its
   highest concurrency, ~311k records on 3 hosts in 2 patterns. *)
let rubis_browse ~seed ~smoke =
  if smoke then rubis ~mix:Tiersim.Workload.Browse_only ~clients:100 ~time_scale:0.025 ~seed ()
  else rubis ~mix:Tiersim.Workload.Browse_only ~clients:1000 ~time_scale:0.2 ~seed ()

let mesh_control ~seed ~smoke =
  let spec =
    match Mesh.Presets.spec_of ~seed "control" with
    | Some s -> s
    | None -> invalid_arg "mesh preset control missing"
  in
  let spec =
    { spec with Mesh.Spec.clients = 32; requests_per_client = (if smoke then 8 else 400) }
  in
  let b = Mesh.Runtime.build spec in
  Simnet.Engine.run b.Mesh.Runtime.engine;
  ( Trace.Probe.logs b.Mesh.Runtime.probe,
    b.Mesh.Runtime.gt,
    Core.Transform.config ~entry_points:b.Mesh.Runtime.entries () )

(* RUBiS Default mix (~15% writes) under the paper's noise environment
   and 200 ms of clock skew. *)
let rubis_noisy ~seed ~smoke =
  rubis ~mix:Tiersim.Workload.Default
    ~clients:(if smoke then 60 else 300)
    ~time_scale:(if smoke then 0.01 else 0.3)
    ~noise:(Tiersim.Scenario.Paper_noise { db_connections = 4 })
    ~skew:(Sim_time.ms 200) ~seed ()

let all =
  [
    {
      name = "rubis_offline";
      kind = Offline;
      default_seed = 42;
      window = Sim_time.ms 10;
      tolerance = Sim_time.us 500;
      simulate = rubis_browse;
    };
    {
      name = "mesh_offline";
      kind = Offline;
      default_seed = 7;
      window = Sim_time.ms 5;
      tolerance = Sim_time.ms 2;
      simulate = mesh_control;
    };
    {
      name = "noisy_live";
      kind = Live;
      default_seed = 42;
      window = Sim_time.ms 10;
      tolerance = Sim_time.us 500;
      simulate = rubis_noisy;
    };
    {
      name = "rubis_capture";
      kind = Capture;
      default_seed = 42;
      window = Sim_time.ms 10;
      tolerance = Sim_time.us 500;
      simulate = rubis_browse;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
let names = List.map (fun w -> w.name) all

(* ---- generated files ---- *)

let trace_file dir = Filename.concat dir "trace.ptb"
let oracle_file dir = Filename.concat dir "oracle.txt"
let meta_file dir = Filename.concat dir "meta.json"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

let endpoint_to_string (e : Simnet.Address.endpoint) =
  Printf.sprintf "%s:%d" (Simnet.Address.ip_to_string e.Simnet.Address.ip) e.Simnet.Address.port

let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error ("bad endpoint " ^ s)
  | Some i -> (
      match
        ( Simnet.Address.ip_of_string (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | ip, Some port -> Ok (Simnet.Address.endpoint ip port)
      | _, None -> Error ("bad endpoint " ^ s)
      | exception Invalid_argument _ -> Error ("bad endpoint " ^ s))

type meta = {
  records : int;
  requests : int;
  hosts : string list;
  max_port : int;
  window : Sim_time.span;
  tolerance : Sim_time.span;
  transform : Core.Transform.config;
}

let meta_to_json w ~seed m =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  let tr = m.transform in
  Json.Obj
    [
      ("workload", Json.String w.name);
      ("seed", Json.Int seed);
      ("records", Json.Int m.records);
      ("requests", Json.Int m.requests);
      ("hosts", strings m.hosts);
      ("max_port", Json.Int m.max_port);
      ("window_ns", Json.Int (Sim_time.span_ns m.window));
      ("tolerance_ns", Json.Int (Sim_time.span_ns m.tolerance));
      ("entry_points", strings (List.map endpoint_to_string tr.Core.Transform.entry_points));
      ("drop_programs", strings tr.Core.Transform.drop_programs);
      ("drop_ports", Json.List (List.map (fun p -> Json.Int p) tr.Core.Transform.drop_ports));
    ]

let ( let* ) = Result.bind

let meta_of_json j =
  let field k = match Json.member k j with Some v -> Ok v | None -> Error ("meta: no " ^ k) in
  let int k = let* v = field k in match v with Json.Int i -> Ok i | _ -> Error ("meta: " ^ k) in
  let strings k =
    let* v = field k in
    match v with
    | Json.List l ->
        Ok (List.filter_map (function Json.String s -> Some s | _ -> None) l)
    | _ -> Error ("meta: " ^ k)
  in
  let* records = int "records" in
  let* requests = int "requests" in
  let* hosts = strings "hosts" in
  let* max_port = int "max_port" in
  let* window_ns = int "window_ns" in
  let* tolerance_ns = int "tolerance_ns" in
  let* entries = strings "entry_points" in
  let* entry_points =
    List.fold_right
      (fun s acc ->
        let* acc = acc in
        let* e = endpoint_of_string s in
        Ok (e :: acc))
      entries (Ok [])
  in
  let* drop_programs = strings "drop_programs" in
  let* drop_ports =
    let* v = field "drop_ports" in
    match v with
    | Json.List l -> Ok (List.filter_map (function Json.Int p -> Some p | _ -> None) l)
    | _ -> Error "meta: drop_ports"
  in
  Ok
    {
      records;
      requests;
      hosts;
      max_port;
      window = Sim_time.ns window_ns;
      tolerance = Sim_time.ns tolerance_ns;
      transform = Core.Transform.config ~entry_points ~drop_programs ~drop_ports ();
    }

(* Simulate, check ports, and write the three input files into [dir]. *)
let generate w ~seed ~smoke ~dir =
  let logs, gt, transform = w.simulate ~seed ~smoke in
  let* max_port = Ports.check logs in
  let arenas = Trace.Arena.of_collection logs in
  write_file (trace_file dir) (Trace.Binary_format.encode_native arenas);
  Trace.Ground_truth.save gt ~path:(oracle_file dir);
  let meta =
    {
      records = Trace.Log.total logs;
      requests = Trace.Ground_truth.count gt;
      hosts = List.map Trace.Log.hostname logs;
      max_port;
      window = w.window;
      tolerance = w.tolerance;
      transform;
    }
  in
  write_file (meta_file dir) (Json.to_string ~indent:true (meta_to_json w ~seed meta));
  Ok meta

let load_meta dir =
  let* j = Json.of_string (read_file (meta_file dir)) in
  meta_of_json j
