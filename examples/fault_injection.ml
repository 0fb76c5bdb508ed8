(* Fault injection: the paper's §5.4.2 validation.

   Three performance problems are injected into the running service - an
   EJB delay in the app tier, a lock on the database's items table, and a
   10 Mbps NIC on the app node. For each, the latency-percentage profile of
   the average causal path is compared against the healthy baseline and the
   diagnosis rules must name the right component.

     dune exec examples/fault_injection.exe *)

module S = Tiersim.Scenario
module Faults = Tiersim.Faults

let spec faults = { S.default with S.clients = 300; time_scale = 0.1; faults }

let profile faults =
  let outcome = S.run (spec faults) in
  let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
  let result = Core.Correlator.correlate cfg outcome.S.logs in
  let pattern =
    let two_db p =
      List.length
        (String.split_on_char '>' p.Core.Pattern.name |> List.filter (String.equal "mysqld"))
      >= 2
    in
    let patterns = Core.Pattern.classify result.Core.Correlator.cags in
    match List.find_opt two_db patterns with Some p -> p | None -> List.hd patterns
  in
  Core.Aggregate.of_pattern pattern

let () =
  let normal = profile [] in
  Format.printf "healthy baseline:@.%a@.@." Core.Aggregate.pp normal;
  List.iter
    (fun fault ->
      let observed = profile [ fault ] in
      let report =
        Core.Analysis.compare_profiles ~baseline:(Core.Analysis.shares normal)
          ~observed:(Core.Analysis.shares observed)
      in
      Format.printf "=== injected: %s ===@." (Faults.name fault);
      Format.printf "%a@.@." Core.Analysis.pp_report report)
    [ Faults.ejb_delay; Faults.database_lock; Faults.ejb_network ]
