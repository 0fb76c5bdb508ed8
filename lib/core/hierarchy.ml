module Activity = Trace.Activity
module Sim_time = Simnet.Sim_time

(* ---- Canonical order and splice. ---- *)

let compare_paths (a : Cag.t) (b : Cag.t) =
  let ra = (Cag.root a).Cag.activity in
  let rb = (Cag.root b).Cag.activity in
  let c = Sim_time.compare ra.Activity.timestamp rb.Activity.timestamp in
  if c <> 0 then c
  else
    let c = Activity.compare_context ra.Activity.context rb.Activity.context in
    if c <> 0 then c
    else
      let c = Sim_time.compare (Cag.end_ts a) (Cag.end_ts b) in
      if c <> 0 then c
      else
        let c = Int.compare (Cag.size a) (Cag.size b) in
        if c <> 0 then c
        else String.compare (Pattern.signature_of a) (Pattern.signature_of b)

let canonicalize ?(first_id = 0) cags =
  let sorted = List.sort compare_paths cags in
  List.iteri (fun i c -> Cag.Builder.renumber c ~cag_id:(first_id + i)) sorted;
  sorted

let splice shards = canonicalize (List.concat shards)

(* ---- Identity digest (the byte format Shard.digest always used). ---- *)

let render ~finished ~deformed =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "finished=%d deformed=%d\n" (List.length finished)
       (List.length deformed));
  let patterns = Pattern.classify finished in
  List.iter
    (fun (pat : Pattern.t) ->
      Buffer.add_string buf
        (Printf.sprintf "pattern %s n=%d sig=%s\n" pat.Pattern.name (Pattern.count pat)
           pat.Pattern.signature);
      List.iter
        (fun (c : Cag.t) -> Buffer.add_string buf (Printf.sprintf " id=%d" c.Cag.cag_id))
        pat.Pattern.cags;
      Buffer.add_char buf '\n';
      if List.exists Cag.is_finished pat.Pattern.cags then begin
        List.iter
          (fun (c, share) ->
            Buffer.add_string buf
              (Printf.sprintf "  %s %.9f\n" (Latency.component_label c) share))
          (Analysis.shares (Aggregate.of_pattern pat));
        let tt = Aggregate.total_tail pat in
        Buffer.add_string buf
          (Printf.sprintf "  tail %.9f %.9f %.9f %.9f\n" tt.Aggregate.t_p50_s
             tt.Aggregate.t_p90_s tt.Aggregate.t_p99_s tt.Aggregate.t_max_s)
      end)
    patterns;
  Buffer.contents buf

let digest ~finished ~deformed =
  let finished = canonicalize finished in
  let deformed = canonicalize ~first_id:(List.length finished) deformed in
  Digest.to_hex (Digest.string (render ~finished ~deformed))

let digest_result (result : Correlator.result) =
  digest ~finished:result.Correlator.cags ~deformed:result.Correlator.deformed
