module Engine = Simnet.Engine
module Sim_time = Simnet.Sim_time

type t = {
  engine : Engine.t;
  capacity : int;
  mutable used : int;
  waiters : (unit -> unit) Queue.t;
  mutable peak : int;
}

let create ~engine ~capacity =
  assert (capacity > 0);
  { engine; capacity; used = 0; waiters = Queue.create (); peak = 0 }

let acquire t k =
  if t.used < t.capacity then begin
    t.used <- t.used + 1;
    k ()
  end
  else begin
    Queue.push k t.waiters;
    if Queue.length t.waiters > t.peak then t.peak <- Queue.length t.waiters
  end

let release t =
  if t.used <= 0 then invalid_arg "Semaphore.release: nothing held";
  match Queue.take_opt t.waiters with
  | Some next ->
      (* Slot passes directly to the next waiter, asynchronously. *)
      ignore (Engine.schedule_after t.engine ~delay:Sim_time.span_zero next)
  | None -> t.used <- t.used - 1

let waiting t = Queue.length t.waiters
let peak_waiting t = t.peak
