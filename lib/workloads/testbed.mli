(** Standard experiment topologies (§4.1).

    Builders for the configurations the paper's evaluation uses: a
    bm-guest on a BM-Hive server, a vm-guest on a dual-socket host,
    co-resident pairs of each (the Fig. 9/10 setups), the physical
    baseline, and a fat client box on its own switch for load
    generation. *)

type t = {
  sim : Bm_engine.Sim.t;
  rng : Bm_engine.Rng.t;
  fabric : Bm_cloud.Vswitch.fabric;
  net : Bm_fabric.Fabric.t option;  (** link-level network, when modelled *)
  storage : Bm_cloud.Blockstore.t;
  obs : Bm_engine.Obs.t;
  fault : Bm_engine.Fault.t;
}

val make :
  ?seed:int ->
  ?storage_kind:Bm_cloud.Blockstore.kind ->
  ?trace:Bm_engine.Trace.t ->
  ?metrics:Bm_engine.Metrics.t ->
  ?faults:Bm_engine.Fault.plan ->
  ?topology:Bm_fabric.Topology.t ->
  unit ->
  t
(** [trace]/[metrics] become the testbed's observability context [obs],
    threaded into every component the builders below create. Omitting
    both keeps the datapath sink-free (zero recording cost). [faults]
    builds and arms a fault injector from the plan, threaded the same
    way; omitting it leaves the null injector, whose runs are
    bit-identical to a fault-free build.
    [topology] instantiates a link-level {!Bm_fabric.Fabric} (seeded
    independently of the main RNG chain, so no-topology runs are
    untouched) and routes cross-server traffic over it; each server
    built afterwards claims the next host port, and building more
    servers than the topology has hosts raises — note {!client_box}
    consumes a port too. *)

val bm_server :
  ?profile:Bm_iobond.Profile.t ->
  ?vfs:int ->
  t ->
  Bm_hyp.Bm_hypervisor.server

val bm_guest :
  ?profile:Bm_iobond.Profile.t ->
  ?net_limits:Bm_cloud.Limits.net ->
  ?blk_limits:Bm_cloud.Limits.blk ->
  t ->
  Bm_hyp.Bm_hypervisor.server * Bm_guest.Instance.t
(** One bm-guest, named ["bm0"], on the shadow-vring
    datapath of a fresh base server. *)

val bm_pair :
  ?profile:Bm_iobond.Profile.t ->
  ?net_limits:Bm_cloud.Limits.net ->
  t ->
  Bm_hyp.Bm_hypervisor.server * Bm_guest.Instance.t * Bm_guest.Instance.t
(** Two bm-guests co-resident on one base server (Fig. 9 topology). *)

val vm_host : ?vfs:int -> t -> Bm_hyp.Kvm.host

val vm_guest :
  ?blk_limits:Bm_cloud.Limits.blk ->
  ?host_load:float ->
  ?pinning:Bm_hyp.Preempt.mode ->
  t ->
  Bm_hyp.Kvm.host * Bm_guest.Instance.t
(** One 32-vCPU vm-guest, ["vm0"], on the vhost datapath of a fresh
    host; [host_load] (default 0.5) and [pinning] (default [Exclusive])
    shape its preemption. *)

val vm_pair :
  ?net_limits:Bm_cloud.Limits.net ->
  t ->
  Bm_hyp.Kvm.host * Bm_guest.Instance.t * Bm_guest.Instance.t
(** Two 16-vCPU vm-guests on one dual-socket host with headroom for
    both. *)

val physical : ?sockets:int -> t -> Bm_guest.Instance.t
val client_box : t -> Bm_guest.Instance.t
val run : t -> unit
