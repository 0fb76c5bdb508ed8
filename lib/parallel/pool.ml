type job = {
  f : int -> unit;
  n : int;
  next : int Atomic.t;  (* next index to claim *)
  completed : int Atomic.t;  (* tasks finished (ran or failed) *)
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int;  (* bumped per published job *)
  mutable failure : exn option;  (* first exception of the current job *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  busy : bool Atomic.t;  (* re-entrancy guard: a job is in flight *)
}

(* Claim indices until the range is exhausted, recording the first
   failure. Runs without the lock held. *)
let work_on t (job : job) =
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      (try job.f i
       with e ->
         Mutex.lock t.lock;
         if t.failure = None then t.failure <- Some e;
         Mutex.unlock t.lock);
      let finished = 1 + Atomic.fetch_and_add job.completed 1 in
      if finished = job.n then begin
        Mutex.lock t.lock;
        Condition.broadcast t.work_done;
        Mutex.unlock t.lock
      end;
      claim ()
    end
  in
  claim ()

let worker t =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stop) && (t.generation = !seen || t.job = None) do
      Condition.wait t.work_ready t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      seen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      work_on t job;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      failure = None;
      stop = false;
      domains = [];
      busy = Atomic.make false;
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.jobs

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_inline ~n f =
  for i = 0 to n - 1 do
    f i
  done

let run t ~n f =
  if n <= 0 then ()
  else if t.jobs = 1 || n = 1 || not (Atomic.compare_and_set t.busy false true) then
    (* Single-domain pool, trivial range, or a task re-entering its own
       pool mid-job: degrade to inline execution. *)
    run_inline ~n f
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        let job = { f; n; next = Atomic.make 0; completed = Atomic.make 0 } in
        Mutex.lock t.lock;
        t.job <- Some job;
        t.failure <- None;
        t.generation <- t.generation + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.lock;
        (* The caller pulls indices alongside the workers. *)
        work_on t job;
        Mutex.lock t.lock;
        while Atomic.get job.completed < job.n do
          Condition.wait t.work_done t.lock
        done;
        t.job <- None;
        let failure = t.failure in
        t.failure <- None;
        Mutex.unlock t.lock;
        match failure with None -> () | Some e -> raise e)

let map t ~n f =
  let out = Array.make n None in
  run t ~n (fun i -> out.(i) <- Some (f i));
  Array.map
    (function Some v -> v | None -> invalid_arg "Pool.map: task did not complete")
    out

let default_jobs () =
  match Option.bind (Sys.getenv_opt "PT_JOBS") (fun s -> int_of_string_opt (String.trim s)) with
  | Some n when n >= 1 -> min 64 n
  | Some _ | None -> 1
