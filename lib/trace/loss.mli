(** Activity loss injection.

    The paper notes (§5.2) that network congestion could lose logged
    activities, deforming CAGs, and argues deformed CAGs are
    distinguishable from normal ones by their relative frequency. This
    module drops activities to let experiments (ext-2 in DESIGN.md) test
    that hypothesis. *)

val drop : rng:Simnet.Rng.t -> p:float -> Log.collection -> Log.collection
(** Drop each activity independently with probability [p]. *)

val drop_kind : rng:Simnet.Rng.t -> p:float -> kind:Activity.kind -> Log.collection -> Log.collection
(** Drop only activities of [kind], e.g. only RECEIVEs. *)

val silence : host:string -> after:Simnet.Sim_time.t -> Log.collection -> Log.collection
(** Drop everything [host] logged after instant [after] — a probe crash or
    network partition. The straggler scenario: the host keeps serving (its
    peers' SENDs/RECEIVEs still reference it) but its own log goes dark,
    which stalls a fault-intolerant online correlator forever. *)
