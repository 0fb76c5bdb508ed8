(* Bottleneck hunting: the paper's §5.4.1 misconfiguration case.

   The three-tier auction site degrades when concurrent clients grow from
   500 to 800, yet every node's CPU stays well below 80% — resource
   monitoring is no help. PreciseTracer's average causal paths show the
   httpd2java interaction share exploding, pointing at the app server's
   connection admission: its MaxThreads knob (default 40). Raising it to
   250 fixes the 500-800 range, until the hardware becomes the limit.

     dune exec examples/bottleneck_hunt.exe *)

module S = Tiersim.Scenario
module Metrics = Tiersim.Metrics
module Service = Tiersim.Service

let spec ~clients ~max_threads =
  { S.default with S.clients; max_threads; time_scale = 0.1; name = "hunt" }

let viewitem_profile outcome =
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let result = Core.Correlator.correlate cfg outcome.S.logs in
  let patterns = Core.Pattern.classify result.Core.Correlator.cags in
  let two_db p =
    List.length
      (String.split_on_char '>' p.Core.Pattern.name |> List.filter (String.equal "mysqld"))
    >= 2
  in
  let pattern =
    match List.find_opt two_db patterns with Some p -> p | None -> List.hd patterns
  in
  Core.Aggregate.of_pattern pattern

let describe name outcome =
  let s = outcome.S.summary in
  Format.printf "%-22s %6.1f req/s, mean RT %7.1f ms, CPUs: web %.0f%% app %.0f%% db %.0f%%@."
    name s.Metrics.throughput_rps (s.mean_rt_s *. 1e3)
    (100.0 *. outcome.S.web.Service.cpu_utilization)
    (100.0 *. outcome.S.app.cpu_utilization)
    (100.0 *. outcome.S.db.cpu_utilization)

let () =
  Format.printf "== step 1: the symptom ==@.";
  let healthy = S.run (spec ~clients:400 ~max_threads:40) in
  let sick = S.run (spec ~clients:700 ~max_threads:40) in
  describe "400 clients (MT=40)" healthy;
  describe "700 clients (MT=40)" sick;
  Format.printf
    "@.Throughput barely grew and response time exploded, but no CPU is hot:@.the traditional \
     utilization check points nowhere.@.@.";

  Format.printf "== step 2: what the causal paths say ==@.";
  let base_avg = viewitem_profile healthy in
  let sick_avg = viewitem_profile sick in
  Format.printf "%a@.@." Core.Aggregate.pp base_avg;
  Format.printf "%a@.@." Core.Aggregate.pp sick_avg;
  let report =
    Core.Analysis.compare_profiles ~baseline:(Core.Analysis.shares base_avg)
      ~observed:(Core.Analysis.shares sick_avg)
  in
  Format.printf "%a@.@." Core.Analysis.pp_report report;

  Format.printf "== step 3: apply the fix (MaxThreads 40 -> 250) ==@.";
  let fixed = S.run (spec ~clients:700 ~max_threads:250) in
  describe "700 clients (MT=250)" fixed;
  let improvement =
    (sick.S.summary.Metrics.mean_rt_s -. fixed.S.summary.Metrics.mean_rt_s)
    /. sick.S.summary.Metrics.mean_rt_s
  in
  Format.printf "@.mean response time down %.0f%%; the paper's Fig. 16 story.@." (100.0 *. improvement);
  Format.printf "@.== step 4: and the new ceiling is real hardware ==@.";
  let limit = S.run (spec ~clients:1000 ~max_threads:250) in
  describe "1000 clients (MT=250)" limit;
  Format.printf "at 1000 clients the web tier's CPU is the wall - no knob left to turn.@."
