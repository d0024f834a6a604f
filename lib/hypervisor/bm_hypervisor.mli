(** The bm-hypervisor: a BM-Hive base server (§3.2–3.4, Fig. 2 right).

    The base is a simplified 16-core Xeon server. The bm-hypervisor is a
    user-space process per guest (§3.2: "Every bm-hypervisor process
    provides service to one bm-guest only for better isolation") that
    polls the guest's IO-Bond shadow rings and bridges them to the DPDK
    vswitch and the SPDK cloud storage. It never virtualizes CPU or
    memory — guests run natively on their compute boards — and it only
    talks to guests through the virtio rings, never through hypercalls. *)

type server

val create_server :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  Bm_engine.Rng.t ->
  fabric:Bm_cloud.Vswitch.fabric ->
  storage:Bm_cloud.Blockstore.t ->
  ?profile:Bm_iobond.Profile.t ->
  ?board_spec:Bm_hw.Cpu_spec.t ->
  ?boards:int ->
  ?dma_gbit_s:float ->
  ?vfs:int ->
  unit ->
  server
(** Default server: FPGA IO-Bond, 8 Xeon E5-2682 v4 boards with 64 GB
    (the head-to-head configuration of §4; a server takes up to 16
    boards, §3.3). [obs] is threaded into the vswitch, every board's
    IO-Bond, and the backend loops (["hyp.bm"] track; offload, PMD and
    rx-drop metrics). [fault] is threaded into every board's IO-Bond;
    additionally the server subscribes to [Pmd_crash]: the per-guest
    backend processes die for the event's dead-time, then respawn and
    drain from where the shadow vrings left off (["hyp.bm.pmd_crashes"]
    / ["hyp.bm.pmd_respawns"]).

    [vfs] (default 8) sizes the server's SR-IOV pool, two queue pairs
    per function: one shared physical function whose virtual functions
    guests provisioned with [~datapath:Sliced] attach to. The pool
    device is created on first use, so a server that never hands out a
    VF schedules exactly the events it always did. *)

val base_cores : server -> Bm_hw.Cores.t
val free_boards : server -> int

val provision :
  server ->
  name:string ->
  ?net_limits:Bm_cloud.Limits.net ->
  ?blk_limits:Bm_cloud.Limits.blk ->
  ?offload:bool ->
  ?datapath:Bm_iobond.Vf.datapath ->
  unit ->
  (Bm_guest.Instance.t, string) result
(** Power on a free compute board, attach its IO-Bond virtio devices,
    start the per-guest backend process, and return the instance handle.
    Limits default to the cloud-standard ones (§4.1). With [offload]
    (default false), IO-Bond classifies tx flows and forwards known ones
    entirely in hardware (§6).

    [datapath] (default [Vring]) selects the guest's net path:
    [Passthrough] assigns a whole SR-IOV device exclusively,
    [Sliced] attaches one virtual function of the server's shared pool
    (an equal share of the DMA rate, bounded per-VF rings). Both deliver
    completions directly into the guest at device latency, skipping
    the bm-hypervisor poll loop; block I/O stays on the shadow-vring
    path either way. When the pool is exhausted, [Sliced] falls back
    to [Vring], counted in ["hyp.bm.vf_fallbacks"]. *)

val guest_board : server -> name:string -> Bm_guest.Board.t option

val offload_table : server -> name:string -> Bm_iobond.Offload.t option
(** The guest's flow-offload engine when provisioned with [~offload]. *)

val rx_no_buffer_drops : server -> name:string -> int
(** Packets dropped because the guest had no posted rx buffers. *)

val backend_version : server -> name:string -> int
(** Version of the guest's bm-hypervisor backend process (1 at
    provisioning; bumped by {!live_upgrade}). 0 if unknown. *)

val pmd_alive : server -> bool
(** Are the per-guest backend processes currently running? [false] only
    inside an injected [Pmd_crash] dead-time. *)

val pmd_crashes : server -> int
(** Injected backend-process crashes handled so far. *)

val live_upgrade : server -> name:string -> (int, string) result
(** Orthus-style live upgrade of a guest's bm-hypervisor process (§6):
    pause the queue bridges, hand the shadow-ring state to the new
    process (a 200 µs blackout), resume. In-flight
    and newly issued requests survive in the shadow rings. Returns the
    new backend version. Must be called from a simulation process. *)
