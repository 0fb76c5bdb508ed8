(** Shared hostname/address allocation.

    Every simulated deployment — the RUBiS three-tier service, its
    cluster preset, and declarative mesh topologies ({!module:Mesh} in
    [lib/mesh]) — names hosts and assigns subnets through this module, so
    a hostname like [app3] or an entry endpoint always means the same
    thing across presets and no replica-suffix logic is duplicated. *)

val replica_host : tier:string -> index:int -> string
(** [replica_host ~tier:"app" ~index:2] is ["app3"]: 1-based replica
    suffix on the tier name. *)

val cluster_tier_ip : replica:int -> tier_index:int -> string
(** RUBiS cluster addressing: ["10.<replica>.<tier_index+1>.1"]. Tier
    index 0 is the entry (web) tier, so
    [cluster_tier_ip ~replica ~tier_index:0] is the replica's entry
    address. *)

val cluster_client_ip : replica:int -> index:int -> string
(** Client emulator nodes of a cluster replica: ["10.<replica>.0.<10+index>"]. *)

val mesh_tier_ip : tier_index:int -> replica:int -> string
(** ["10.<120+tier_index>.<replica+1>.1"]: mesh topologies take first
    octets from 120, disjoint from cluster replicas and the 10.9.* random
    call-tree topologies. *)

val mesh_clients_ip : string
(** The mesh load-generator node's address. *)
