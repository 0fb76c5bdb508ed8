(** Plain-text tables and CSV output for experiment results.

    Every figure-reproduction bench prints its series through this module,
    so the output stays uniform and machine-extractable. *)

type table

val table : title:string -> columns:string list -> table

val add_row : table -> string list -> unit
(** @raise Invalid_argument on a width mismatch with [columns]. *)

val render : table -> string
(** Aligned, boxed-with-dashes plain text. *)

val print : table -> unit
(** [render] to stdout, followed by a blank line. *)

val to_csv : table -> string
(** RFC 4180-style: cells containing commas, double quotes, or CR/LF are
    wrapped in double quotes with embedded quotes doubled, so telemetry
    and bench tables round-trip through CSV parsers. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_pct : float -> string
(** [cell_pct 0.463] is ["46.3%"]. *)

val clamp_share : ?telemetry:Telemetry.Registry.t -> float -> float
(** Clamp a latency {e share} to [0,1] for display. Skew-pushed negative
    hop spans can drive a profile's shares ({!Analysis.component_stat})
    outside the unit interval; {!Aggregate.of_pattern} stays faithful, so
    presentation clamps here — and every clamp (or NaN, rendered as 0) bumps
    [pt_latency_share_out_of_range_total] in [telemetry] (default
    registry) so the skew is flagged instead of silently prettified. *)

val cell_span : Simnet.Sim_time.span -> string
