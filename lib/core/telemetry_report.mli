(** Text renderings of a telemetry snapshot. The human-readable one goes
    through {!Report}, so self-profiles print in the same boxed-table
    style as the benches (and round-trip through the same CSV escaping). *)

type format = [ `Prom | `Json | `Report ]

val formats : (string * format) list
(** Every format under its command-line name: [prom] (Prometheus text
    exposition), [json], [report]. *)

val export : format -> Telemetry.Registry.family list -> string
(** The snapshot as text. [`Report] is up to three tables — counters,
    gauges, histograms — omitting kinds with no samples; labels render as
    [k=v] pairs, comma-separated. *)
