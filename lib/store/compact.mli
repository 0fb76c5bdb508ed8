(** Store maintenance: retention and small-segment merging.

    A long-lived store accumulates small segments (frequent flushes, thin
    reduced batches). Compaction (1) applies retention — segments whose
    entire time range has fallen out of the retention window are deleted
    — and (2) merges adjacent runs of small segments into one, keeping
    every surviving record byte-for-byte and the manifest's query answers
    unchanged. Merged segments carry the union of their sources'
    reduction provenance.

    The manifest is saved after retention and after each merge, before
    the files it stops naming are deleted: a compaction that fails
    part-way (say, on an unreadable segment) leaves a store whose
    manifest names exactly the segments on disk. *)

type stats = {
  segments_before : int;
  segments_after : int;
  retired : int;  (** Segments deleted by retention. *)
  merged : int;  (** Source segments folded into merge results. *)
  merge_segments : int;  (** Merge result segments written. *)
}

val pp_stats : Format.formatter -> stats -> unit

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?min_records:int ->
  ?retain_ns:int ->
  dir:string ->
  unit ->
  (stats, string) result
(** Compact the store at [dir]. [min_records] (default 8192) is the
    "small segment" threshold: adjacent (by time) runs of at least two
    segments each under the threshold are merged. [retain_ns], when
    given, keeps only segments overlapping the last [retain_ns]
    nanoseconds before the store's latest timestamp. Counts are recorded
    under [pt_store_compact_*]. *)
