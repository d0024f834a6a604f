(** The vm-hypervisor: a KVM/QEMU-class host (§2, Fig. 2 left).

    A host reserves a slice of its hardware threads for the hypervisor
    and host OS (8 HT, §3.5) — that slice runs the vhost-user poll-mode
    backends and the DPDK vswitch. Guests get dedicated vCPU pools
    (high-end instances are pinned, §2.1) but still pay the
    virtualization mechanisms: trapped config accesses, EPT page walks on
    memory-intensive work, interrupt injection on the I/O completion
    path, extra CPU copies on the storage path, and host-task
    preemption. *)

type host

val create_host :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  Bm_engine.Rng.t ->
  fabric:Bm_cloud.Vswitch.fabric ->
  storage:Bm_cloud.Blockstore.t ->
  ?vfs:int ->
  unit ->
  host
(** A host of two Xeon E5-2682 v4 sockets (the §4.2 comparison
    server), 8 HT reserved for the hypervisor. With [fault], a
    [Pmd_crash] event kills the vhost worker threads for its dead-time;
    they respawn and drain the shared-memory rings from where they left
    off (["hyp.vm.vhost_crashes"] / ["hyp.vm.vhost_respawns"], and
    ["vhost_crash"] / ["vhost_respawn"] instants on the ["hyp.vm"]
    track).

    [vfs] (default 8) sizes the host's VFIO-capable SR-IOV NIC, two
    queue pairs per function (an ASIC part), created on first use by a
    VM whose [vm_config.datapath] asks for direct assignment. *)

type vm_config = {
  name : string;
  vcpus : int;
  pinning : Preempt.mode;
  host_load : float;  (** busyness of the host's service cores *)
  net_limits : Bm_cloud.Limits.net;
  blk_limits : Bm_cloud.Limits.blk;
  nested : bool;  (** run the user's own hypervisor inside (§2.3) *)
  datapath : Bm_iobond.Vf.datapath;
      (** net path: [Vring] (default) is virtio/vhost; [Passthrough]
          pins a whole SR-IOV device (VFIO), [Sliced] one VF of the
          host NIC — both skip the vhost workers, tx doorbells stop
          exiting, and completions inject directly. Falls back to
          [Vring] when the pool is exhausted, counted in
          ["hyp.vm.vf_fallbacks"]. *)
}

val default_config : name:string -> vm_config
(** 32 vCPUs, exclusive pinning, cloud-standard limits. *)

val create_vm : host -> vm_config -> Bm_guest.Instance.t
(** Provision a vm-guest: builds its vCPU pool, virtio devices, vhost
    backend threads, and returns the uniform instance handle. *)

val exit_counters : host -> name:string -> Vmexit.counters option
(** Per-VM exit telemetry. *)
