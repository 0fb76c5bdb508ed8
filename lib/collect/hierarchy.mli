(** The hierarchical collection plane: agents -> shard collectors -> root.

    {!Deploy} funnels every agent of one deployment into one collector
    and one online correlator — fine for three hosts, hopeless for a
    cluster. This plane is the scale-out shape (§6 outlook, realised over
    the {!Tiersim.Scenario} cluster preset):

    - {e level 0} — per-host agents run the partial-correlation pass
      ({!Core.Partial}): prefilter and run coalescing before framing.
      Frames ship the reduced rows.
    - {e level 1} — each replica gets its own collector node (inside the
      replica's engine), but collectors feed {e shard} correlators: shard
      [k] owns the replicas [i] with [i mod shards = k] and runs one
      {!Core.Online} over their partial feeds only. Entry connections
      never cross replicas, so every causal path completes inside its
      shard.
    - {e level 2} — the root ingests each shard's finished paths as one
      PTP1 path table with no back-links ({!Bundle.Codec.encode}) and
      splices them into the canonical global sequence. No component ever
      sees the full raw feed; the root sees no raw records at all.

    Usage: [create] the plane from the cluster spec, pass {!install} as
    [Scenario.run_cluster]'s [before_replica] hook, then {!finish} after
    the cluster run for the merged result and the per-level feed-volume
    accounting. *)

type config = {
  shards : int;  (** Level-1 shard count; capped at the replica count. *)
  agent : Agent.config;
      (** Per-host agent knobs. Its [partial] field is set by the plane to
          the replica's transform; set the rest freely. *)
  port : int;  (** Every replica's collector listens on this port. *)
}

val default_config : config
(** 4 shards, default agent config, port 7441. *)

type t

val create : ?telemetry:Telemetry.Registry.t -> ?config:config -> Tiersim.Scenario.cluster -> t
(** Build the shard correlators up front from the cluster spec alone
    (entry partition and hostnames come from the
    {!Tiersim.Service.replica_entry_endpoint} addressing scheme).
    @raise Invalid_argument on a non-positive shard count. *)

val install : t -> int -> Tiersim.Service.t -> unit
(** The [before_replica] hook: {!Deploy.install_replica} with
    partial-correlating agents, replica [i]'s collector node
    ([collect<i+1>], inside the replica's own engine) delivering into
    shard [i mod shards]. *)

val shard_online : t -> int -> Core.Online.t
(** Shard [k]'s correlator (for inspection; owned by the plane). *)

val collector : t -> int -> Collector.t option
(** Replica [i]'s collector, once {!install} ran for it. *)

val agents : t -> Agent.t list
(** Every installed agent, replica order. *)

type shard_report = {
  shard_id : int;
  shard_replicas : int list;
  paths_finished : int;
  paths_deformed : int;
  ingest_records : int;  (** Reduced rows delivered into this shard. *)
  output_bytes : int;  (** The shard's PTP1 message to the root. *)
}

type report = {
  finished : Core.Cag.t list;  (** Canonical global sequence (root splice). *)
  deformed : Core.Cag.t list;
  digest : string;
      (** {!Core.Hierarchy.digest} of the splice — compare against
          [Core.Hierarchy.digest_result] of a monolithic run over the
          same feed. *)
  shard_reports : shard_report list;
  agent_observed : int;
  agent_reduced : int;
  partial_coalesced : int;
  agent_bytes_shipped : int;  (** Level 0 -> 1 wire bytes, all replicas. *)
  delivered_records : int;  (** Level-1 ingest, all shards. *)
  root_ingest_bytes : int;  (** Level 1 -> 2: sum of PTP1 message sizes. *)
}

val finish : t -> report
(** Drain every shard ({!Core.Online.finish}), encode each shard's paths,
    decode them at the root (the root genuinely ingests only PTP1 bytes),
    splice, digest, and assemble the accounting. Idempotent — the first
    call's report is cached. *)
