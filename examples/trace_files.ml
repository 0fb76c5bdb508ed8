(* Offline workflow with trace files, as the real deployment would run it:
   TCP_TRACE logs are collected per node into files, shipped to an analysis
   machine, and correlated there. This example simulates a short session,
   saves the logs in the paper's record format, reloads them, correlates,
   and validates against the oracle.

     dune exec examples/trace_files.exe [DIR] *)

module S = Tiersim.Scenario

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else Filename.get_temp_dir_name () ^ "/precisetracer-demo" in
  let spec = { S.default with S.clients = 60; time_scale = 0.05 } in
  let outcome = S.run spec in

  (* 1. collect: one <hostname>.trace file per server node *)
  Trace.Log.save outcome.S.logs ~dir;
  Format.printf "wrote %d activities into %s:@." (Trace.Log.total outcome.S.logs) dir;
  List.iter
    (fun log ->
      Format.printf "  %s.trace (%d records)@." (Trace.Log.hostname log) (Trace.Log.length log))
    outcome.S.logs;
  (match outcome.S.logs with
  | log :: _ ->
      Format.printf "@.first records of %s.trace:@." (Trace.Log.hostname log);
      List.iteri
        (fun i a -> if i < 3 then Format.printf "  %s@." (Trace.Raw_format.to_line a))
        (Trace.Log.to_list log)
  | [] -> ());

  (* 1b. the binary format cuts shipping cost ~5-6x *)
  let binary_path = Filename.concat dir "all.ptb" in
  Trace.Binary_format.save (Trace.Arena.of_collection outcome.S.logs) ~path:binary_path;
  let text_bytes =
    List.fold_left
      (fun acc log ->
        List.fold_left
          (fun acc a -> acc + String.length (Trace.Raw_format.to_line a) + 1)
          acc (Trace.Log.to_list log))
      0 outcome.S.logs
  in
  let binary_bytes = (Unix.stat binary_path).Unix.st_size in
  Format.printf "@.binary copy: %s (%d bytes vs %d text, %.1fx smaller)@." binary_path
    binary_bytes text_bytes
    (float_of_int text_bytes /. float_of_int binary_bytes);

  (* 2. reload on the "analysis machine" *)
  match Trace.Log.load ~dir with
  | Error e -> Format.printf "reload failed: %s@." e
  | Ok loaded ->
      Format.printf "@.reloaded %d activities@." (Trace.Log.total loaded);

      (* 3. correlate offline *)
      let cfg = Core.Correlator.config ~transform:outcome.S.transform () in
      let result = Core.Correlator.correlate cfg loaded in
      Format.printf "correlated %d causal paths in %.3f s (peak %d records held)@."
        (List.length result.Core.Correlator.cags)
        result.correlation_time result.peak_memory_proxy;
      List.iter
        (fun p -> Format.printf "  %a@." Core.Pattern.pp p)
        (Core.Pattern.classify result.Core.Correlator.cags);

      (* 4. validate against the ID-tagging oracle *)
      let verdict =
        Core.Accuracy.check ~ground_truth:outcome.S.ground_truth result.Core.Correlator.cags
      in
      Format.printf "@.%a@." Core.Accuracy.pp_verdict verdict
