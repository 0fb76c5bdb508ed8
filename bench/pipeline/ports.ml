(* The port-ceiling guard. The simulator hands out ephemeral ports from
   32768 upward and never wraps them, so a long or busy enough run mints
   ports past 65535; the native encoder's interning then refuses them
   deep inside encoding. The generator checks every flow port first and
   fails with an error that names the limit. *)

let limit = 65535

let check (logs : Trace.Log.collection) =
  let max_port = ref 0 and bad = ref None in
  List.iter
    (fun log ->
      Trace.Log.iter log (fun (a : Trace.Activity.t) ->
          let flow = a.Trace.Activity.message.Trace.Activity.flow in
          List.iter
            (fun (ep : Simnet.Address.endpoint) ->
              let p = ep.Simnet.Address.port in
              if p > !max_port then max_port := p;
              if (p < 0 || p > limit) && Option.is_none !bad then
                bad := Some (Trace.Log.hostname log, p))
            [ flow.Simnet.Address.src; flow.Simnet.Address.dst ]))
    logs;
  match !bad with
  | None -> Ok !max_port
  | Some (host, p) ->
      Error
        (Printf.sprintf
           "host %s: flow port %d is outside 0..%d; the simulator allocates ephemeral ports \
            from 32768 without wrapping, so this workload is too large (lower clients or \
            time_scale)"
           host p limit)
