(** A minimal JSON emitter and parser (no external dependency).

    Construction, compact or indented serialisation with correct string
    escaping, and a small recursive-descent parser so telemetry snapshots
    (and any other emitted document) can be read back and asserted on.
    This module used to live in [lib/core]; {!Core.Json} re-exports it so
    existing call sites are unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with 2-space
    indentation. Floats are emitted with enough digits to round-trip;
    non-finite floats become [null]. *)

val escape_string : string -> string
(** The quoted, escaped JSON form of a string (exposed for tests). *)

val of_string : string -> (t, string) result
(** Parse one JSON document (trailing whitespace allowed). Numbers without
    [.], [e] or [E] parse as [Int]; others as [Float]. [\uXXXX] escapes
    outside ASCII are decoded as UTF-8. Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member key (Obj ...)] is the first binding of [key], if any; [None]
    on non-objects. *)

(** {1 Field decoders}

    The one set of result-returning accessors the library's [of_json]
    decoders share. An error names the field (["missing field \"id\""],
    ["field \"id\": expected an integer"]); callers prefix the section,
    file or offset. *)

val string_field : string -> t -> (string, string) result
(** [string_field name j]: the [name] member of object [j], as a string. *)

val int_field : string -> t -> (int, string) result

val float_field : string -> t -> (float, string) result
(** Accepts an [Int] too. *)

val list_field : string -> t -> (t list, string) result

val as_string : string -> t -> (string, string) result
(** [as_string name v]: [v] itself as a string; [name] labels the error.
    With {!as_int} and {!as_float}, decodes the elements of a
    {!list_field}. *)

val as_int : string -> t -> (int, string) result
val as_float : string -> t -> (float, string) result

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [f] over the list in order, stopping at the first error. *)
