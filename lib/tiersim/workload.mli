(** RUBiS-like workload generation.

    A request is described by a {!plan}: everything each tier must do to
    service it — CPU costs, database queries, message sizes. The plan
    rides the messages as application payload (see {!Simnet.Messaging}),
    standing in for the HTTP parameters and SQL strings a real RUBiS
    deployment would parse; the tracer never sees it.

    Request classes model the RUBiS auction site's browse and bid
    interactions; the two mixes follow the paper's §5.1: [Browse_only]
    (read only) and [Default] (read/write, ~15% writes). *)

type db_query = {
  query_size : int;  (** Bytes, app server -> database. *)
  result_size : int;  (** Bytes, database -> app server. *)
  db_cpu : Simnet.Sim_time.span;
  locks_items : bool;  (** Touches the [items] table (Database_Lock fault). *)
}

type plan = {
  id : int;  (** Globally unique request ID (the oracle's tag). *)
  kind : string;  (** Request class name, e.g. ["ViewItem"]. *)
  request_size : int;  (** Client -> web server. *)
  httpd_parse_cpu : Simnet.Sim_time.span;
  app_request_size : int;  (** Web server -> app server. *)
  app_cpu_pre : Simnet.Sim_time.span;
  queries : db_query list;
  app_cpu_per_query : Simnet.Sim_time.span;
  app_cpu_post : Simnet.Sim_time.span;
  app_response_size : int;  (** App server -> web server. *)
  httpd_respond_cpu : Simnet.Sim_time.span;
  response_size : int;  (** Web server -> client. *)
}

type mix = Browse_only | Default

val mix_to_string : mix -> string
val mix_of_string : string -> mix option

val class_names : mix -> (string * float) list
(** The classes of a mix with their sampling weights. *)

val sample : Simnet.Rng.t -> mix -> id:int -> plan
(** Draw a request: class by mix weight, then per-class costs and sizes
    with multiplicative jitter. *)

val sample_kind : Simnet.Rng.t -> kind:string -> id:int -> plan
(** Draw a request of a specific class (used by single-pattern
    experiments such as the paper's ViewItem analysis).
    @raise Invalid_argument on an unknown class. *)

val think_time : Simnet.Rng.t -> Simnet.Sim_time.span
(** Client think time: exponential with the RUBiS-style mean used
    throughout the evaluation (see {!Scenario}). *)
