(* Adversarial scenario presets over one reference mesh.

   The reference topology is a small but fully-featured microservice
   graph — every branching pattern the RUBiS chain cannot produce:

     gw (entry) -> lb -> api x3 -> { cache -> db x2  ||  profile x2 }
                                   -> worker (async)

   gw fronts a round-robin load balancer over three api replicas; api
   fans out concurrently to a read-through cache (backed by a
   key-partitioned two-replica db) and a key-partitioned profile tier,
   then hands the request to an async queue worker. Presets perturb this
   graph with scenario faults and workload shapes; `random` leaves it
   entirely for a seeded call-tree topology ({!Random_spec}) and
   `random_mesh` for a seeded declarative DAG ({!Spec.random}). *)

module Sim_time = Simnet.Sim_time
module Faults = Tiersim.Faults

let ms = Sim_time.ms
let us = Sim_time.us

(* Healthy end-to-end latency is a few ms; retry timeouts sit well above
   the healthy tail so the control never retries, and well below the
   faulted db's service time so a cascade actually cascades. *)
let retry_policy = { Spec.max_retries = 1; timeout = ms 12; backoff = us 500 }

let base ?(api_retry = None) ?(cache_retry = None) ?(clients = 8)
    ?(requests_per_client = 5) ?(think_mean = ms 15) ?(sync_start = false)
    ?(worker_compute = ms 3) ?(faults = []) ~name ~seed () =
  {
    Spec.name;
    entry = "gw";
    tiers =
      [
        Spec.tier "gw" ~replicas:1 ~cores:2 ~compute:(us 300)
          ~calls:[ Spec.group [ "lb" ] ] ~response_size:2048;
        Spec.tier "lb"
          ~role:(Spec.Load_balancer { backend = "api" })
          ~replicas:1 ~cores:2 ~compute:(us 50) ~skew:(ms 5) ~response_size:512;
        Spec.tier "api" ~replicas:3 ~cores:2 ~compute:(us 800) ~skew:(ms 20)
          ~calls:
            [
              Spec.group ~mode:Spec.Concurrent ?retry:api_retry [ "cache"; "profile" ];
              Spec.group [ "worker" ];
            ]
          ~response_size:4096;
        Spec.tier "cache"
          ~role:
            (Spec.Cache { hit_ratio = 0.7; backing = "db"; backing_retry = cache_retry })
          ~replicas:1 ~cores:2 ~compute:(us 150) ~skew:(ms 10) ~response_size:1024;
        Spec.tier "profile" ~replicas:2 ~cores:2 ~compute:(us 400) ~skew:(ms 15)
          ~response_size:2048;
        Spec.tier "db" ~replicas:2 ~cores:1 ~compute:(ms 2) ~skew:(ms 25)
          ~response_size:8192;
        Spec.tier "worker" ~role:Spec.Queue_worker ~replicas:1 ~cores:2
          ~compute:worker_compute ~skew:(ms 8) ~response_size:256;
      ];
    clients;
    requests_per_client;
    think_mean;
    sync_start;
    keys = 100;
    request_size = 512;
    chunk = 4096;
    faults;
    seed;
  }

(* The hot key must be a guaranteed cache miss (key mod 100 >= 70) so
   every hot request reaches the db, and it lands on partition
   93 mod 2 = 1 — host db2 becomes the hotspot. *)
let hotspot_hot_key = 93

let spec_of ~seed = function
  | "control" -> Some (base ~name:"control" ~seed ())
  | "cascading_failure" ->
      Some
        (base ~name:"cascading_failure" ~seed
           ~api_retry:(Some retry_policy) ~cache_retry:(Some retry_policy)
           ~requests_per_client:4 ~think_mean:(ms 10)
           ~faults:[ Faults.tier_slow ~tier:"db" ~factor:10.0 ]
           ())
  | "hotspot_key" ->
      Some
        (base ~name:"hotspot_key" ~seed ~clients:10 ~requests_per_client:4
           ~faults:[ Faults.key_skew ~tier:"db" ~hot_key:hotspot_hot_key ~share:0.8 ]
           ())
  | "canary_slow_version" ->
      Some
        (base ~name:"canary_slow_version" ~seed ~requests_per_client:4
           ~faults:[ Faults.replica_slow ~tier:"api" ~replica:2 ~factor:6.0 ]
           ())
  | "thundering_herd" ->
      Some
        (base ~name:"thundering_herd" ~seed ~clients:32 ~requests_per_client:2
           ~think_mean:Sim_time.span_zero ~sync_start:true ~worker_compute:(ms 6) ())
  | "random_mesh" -> Some (Spec.random ~seed ())
  | _ -> None

let names =
  [
    "control";
    "cascading_failure";
    "hotspot_key";
    "canary_slow_version";
    "thundering_herd";
    "random";
    "random_mesh";
  ]

type report = {
  preset : string;
  seed : int;
  accuracy : float;
  correct : int;
  total_requests : int;
  false_positives : int;
  false_negatives : int;
  paths : int;
  patterns : int;
  records : int;
  retries : int;
  cache_hits : int;
  cache_misses : int;
  async_jobs : int;
  served : (string * int) list;
  digest : string;
  correlation_time : float;
}

let report_of_score ~preset ~seed ~stats ~served (s : Runtime.score) =
  {
    preset;
    seed;
    accuracy = s.verdict.Core.Accuracy.accuracy;
    correct = s.verdict.correct;
    total_requests = s.verdict.total_requests;
    false_positives = s.verdict.false_positives;
    false_negatives = s.verdict.false_negatives;
    paths = List.length s.result.Core.Correlator.cags;
    patterns = s.patterns;
    records = s.records;
    retries = (match stats with Some (st : Runtime.stats) -> st.retries | None -> 0);
    cache_hits = (match stats with Some st -> st.cache_hits | None -> 0);
    cache_misses = (match stats with Some st -> st.cache_misses | None -> 0);
    async_jobs = (match stats with Some st -> st.async_jobs | None -> 0);
    served;
    digest = s.digest;
    correlation_time = s.result.Core.Correlator.correlation_time;
  }

let default_seed = 7

let run ?window ?(seed = default_seed) name =
  match name with
  | "random" ->
      let spec = { Random_spec.default_spec with seed; clients = 6; tiers = 4 } in
      let b = Random_spec.build spec in
      Simnet.Engine.run b.Random_spec.engine;
      let s =
        Runtime.score_logs ?window ~entries:[ b.entry ] ~gt:b.gt
          (Trace.Probe.logs b.probe)
      in
      report_of_score ~preset:name ~seed ~stats:None ~served:[] s
  | _ -> (
      match spec_of ~seed name with
      | None ->
          Printf.ksprintf invalid_arg "Mesh.Presets.run: unknown preset %s (try: %s)"
            name (String.concat ", " names)
      | Some spec ->
          let b, s = Runtime.run ?window spec in
          report_of_score ~preset:name ~seed ~stats:(Some b.Runtime.stats)
            ~served:(Runtime.served b) s)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>preset %s (seed %d)@,\
     accuracy %.4f (%d/%d correct, fp %d, fn %d)@,\
     paths %d, patterns %d, records %d@,\
     retries %d, cache %d hit / %d miss, async jobs %d@]"
    r.preset r.seed r.accuracy r.correct r.total_requests r.false_positives
    r.false_negatives r.paths r.patterns r.records r.retries r.cache_hits
    r.cache_misses r.async_jobs
