type t = { state : Random.State.t; seed : int }

(* FNV-1a over the label, folded with the parent seed, so that split streams
   are a pure function of (seed, label). *)
let hash_label seed label =
  (* 64-bit constants truncated to OCaml's 63-bit int; collisions remain
     vanishingly unlikely for the handful of labels in use. *)
  let h = ref 0x2f29ce484222325 in
  let fold c =
    h := !h lxor Char.code c;
    h := !h * 0x100000001b3
  in
  String.iter fold label;
  (!h lxor (seed * 0x1e3779b97f4a7c15)) land max_int

let create ~seed = { state = Random.State.make [| seed |]; seed }
let split t label = create ~seed:(hash_label t.seed label)
let int t bound = Random.State.int t.state bound
let float t bound = Random.State.float t.state bound
let bool t = Random.State.bool t.state
let bernoulli t ~p = Random.State.float t.state 1.0 < p

let uniform_span t ~lo ~hi =
  let a = Sim_time.span_ns lo and b = Sim_time.span_ns hi in
  if b <= a then lo else Sim_time.ns (a + Random.State.int t.state (b - a + 1))

let exponential t ~mean =
  let u = 1.0 -. Random.State.float t.state 1.0 in
  -.mean *. log u

let exponential_span t ~mean =
  let m = float_of_int (Sim_time.span_ns mean) in
  Sim_time.ns (max 1 (int_of_float (exponential t ~mean:m)))

let pareto t ~shape ~scale =
  let u = 1.0 -. Random.State.float t.state 1.0 in
  scale *. (u ** (-1.0 /. shape))

let normal t ~mean ~std =
  let u1 = 1.0 -. Random.State.float t.state 1.0 in
  let u2 = Random.State.float t.state 1.0 in
  mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let positive_normal_span t ~mean ~rel_std =
  let m = float_of_int (Sim_time.span_ns mean) in
  let d = normal t ~mean:m ~std:(rel_std *. m) in
  Sim_time.ns (max 1 (int_of_float d))

let weighted t items =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 items in
  assert (total > 0.0);
  let x = Random.State.float t.state total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.weighted: empty"
    | [ (item, _) ] -> item
    | (item, w) :: rest -> if x < acc +. w then item else pick (acc +. w) rest
  in
  pick 0.0 items

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int t.state (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
