(** The user-space I/O backend both hypervisors run (§3.2, §3.4.2).

    The bm-hypervisor's per-guest PMD processes and KVM's vhost workers
    are the same kind of program: poll-mode loops that bridge a guest's
    virtio queues to the vswitch and cloud storage over vhost-user. They
    differ only in where the rings live (IO-Bond shadow vrings vs shared
    memory) and in what each hop costs. This module owns the rest once:
    the SR-IOV pool with its counted fallback, the crash/respawn gate,
    the hint-coalesced drain fibers, the bounded rx backlog and VF rx
    endpoint, the guest interrupt path, and the guest-facing I/O
    closures. Each side passes in its metric track, its costs and how
    it pops and completes a ring.

    The backend side is callback chains, not fibers: the drain and rx
    pumps, the per-request workers and the blk interrupt are
    {!Bm_engine.Sim.schedule}d steps. The guest side — [send], [blk],
    the net interrupt handler and the rx handlers it runs — stays
    processes, because they block. {!attach_vf}, {!drain}, {!listen}
    and {!post_rx} schedule events; their order fixes the
    event schedule, so each side calls them in its own order. *)

type t
(** One host's backend: its vswitch, SR-IOV pool and process liveness. *)

val create :
  obs:Bm_engine.Obs.t ->
  fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  fabric:Bm_cloud.Vswitch.fabric ->
  cores:Bm_hw.Cores.t ->
  storage:Bm_cloud.Blockstore.t ->
  track:string ->
  process:string ->
  vf_profile:Bm_iobond.Profile.t ->
  vfs:int ->
  t
(** Builds the host's vswitch on [cores] and subscribes to [Pmd_crash]:
    the backend processes die for the event's dead-time, then respawn
    and rekick every guest queue that still holds work. Metrics are
    named ["<track>.<name>"] — ["<process>_crashes"],
    ["<process>_respawns"], ["net_shed"], ["blk_shed"], ["rx_drops"],
    ["vf_fallbacks"], ["vf_tx_rejects"], ["blk_rejected"] — and the
    crash and respawn are instants ["<process>_crash"] /
    ["<process>_respawn"] on [track]. [vfs] and [vf_queues] size the
    SR-IOV pool (a [vf_profile] part, created on first use). Raises
    [Invalid_argument] if either is below 1. *)

val vswitch : t -> Bm_cloud.Vswitch.t

val alive : t -> bool
(** [false] only inside a [Pmd_crash] dead-time. *)

val crashes : t -> int

(** {2 Per-guest backend} *)

type guest

val guest :
  t ->
  name:string ->
  net:Bm_virtio.Virtio_net.t ->
  blk:Bm_virtio.Virtio_blk.t ->
  cores:Bm_hw.Cores.t ->
  os:Bm_guest.Guest_os.t ->
  io_factor:float ->
  doorbell_ns:float ->
  irq:((unit -> unit) -> unit) ->
  net_limits:Bm_cloud.Limits.net ->
  blk_limits:Bm_cloud.Limits.blk ->
  refilled:(unit -> unit) ->
  guest
(** Register a guest, bring its vhost-user devices up and install its
    interrupt handlers. Guest-side costs: every guest I/O stack charge
    on [cores] is scaled by [io_factor], a tx kick adds [doorbell_ns]
    of CPU stall, and [irq k] pays the cost of taking one interrupt when
    not polling, as a callback chain that calls [k] after it.
    [refilled] runs whenever rx buffers were reposted. *)

val attach_vf : guest -> Bm_iobond.Vf.datapath -> unit
(** [Passthrough] creates a dedicated one-VF device, [Sliced] attaches
    one VF of the pool and falls back to [Vring], counted, when the
    pool is exhausted. Call before {!listen} and {!instance}. *)

val drain :
  guest ->
  ?after:(unit -> unit) ->
  pending:(unit -> int) ->
  pop:(unit -> 'a option) ->
  ('a -> unit) ->
  unit ->
  unit
(** Start one backend queue's drain pump and return its doorbell. Each
    hint (coalesced to one pending) waits out a crash, then starts one
    worker chain per popped request, each from a zero-delay event, and
    runs [after]. A respawn rings the doorbell again if [pending] work
    survived. *)

val listen : guest -> (Bm_virtio.Packet.t -> unit) -> unit
(** Register the guest's vswitch endpoint and start the rx pump. On the
    vring path deliveries enter a bounded backlog (drop-tail) and the
    pump starts [fill] per packet from a zero-delay event; on a VF the
    device delivers into the guest directly, a rejection counting as an
    rx drop. *)

val rx_drop : guest -> Bm_virtio.Packet.t -> unit
(** Count a packet the guest had no buffer for. *)

val serve : guest -> Bm_virtio.Virtio_blk.req -> (unit -> unit) -> unit
(** [serve g req k] serves one request against cloud storage
    ({!Bm_cloud.Blockstore.serve_callback}), then calls [k]; a full
    admission queue marks it failed so the guest can retry. *)

val post_rx : guest -> unit
(** Schedule the posting of the initial rx buffers. *)

val instance :
  guest ->
  kind:Bm_guest.Instance.kind ->
  spec:Bm_hw.Cpu_spec.t ->
  memory:Bm_hw.Memory.t ->
  exec_ns:(float -> unit) ->
  exec_mem_ns:(working_set:float -> locality:float -> float -> unit) ->
  pause:(unit -> unit) ->
  ipi:(unit -> unit) ->
  timer_arm:(unit -> unit) ->
  Bm_guest.Instance.t
(** The guest's handle: [send]/[send_dpdk] (rate-limited, through the
    vring or straight to the VF), [blk]/[blk_try], [probe] and the rx
    hooks come from here; CPU and memory behaviour from the side. *)

val rx_drops : t -> name:string -> int
val net_queue_size : int
