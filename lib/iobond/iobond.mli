(** IO-Bond: the FPGA (or ASIC) bridging one compute board to the base.

    One IO-Bond instance serves one bm-guest (§3.3). It exposes a PCIe x4
    interface each for the virtio network and storage devices on the
    compute-board side, backed by a PCIe x8 interface to the
    bm-hypervisor, with a ~50 Gbit/s internal DMA engine (§3.4.3).
    Emulated PCI config accesses are forwarded through the mailbox pair
    at a constant cost of two register hops.

    Use {!attach_net}/{!attach_blk} to instantiate virtio devices whose
    queues are bridged through shadow vrings; the returned ports give the
    guest side (the virtio device) and the hypervisor side (the queue
    bridges). *)

type t

type net_port = {
  net_device : Bm_virtio.Virtio_net.t;
  net_tx : Bm_virtio.Packet.t Queue_bridge.t;
  net_rx : Bm_virtio.Packet.t Queue_bridge.t;
}

type blk_port = {
  blk_device : Bm_virtio.Virtio_blk.t;
  blk_queue : Bm_virtio.Virtio_blk.req Queue_bridge.t;
}

val create :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  profile:Profile.t ->
  ?dma_gbit_s:float ->
  unit ->
  t
(** [dma_gbit_s] overrides the profile's 50 Gbit/s engine — used by the
    DMA-sizing ablation. [obs] is threaded into the links, DMA engine,
    mailbox, bridges and attached virtio devices; emulated PCI config
    accesses additionally span on the ["iobond.cfg"] track. [fault] is
    threaded the same way; additionally the IO-Bond subscribes to
    [Firmware_wedge]: when the wedge window clears, it performs a device
    reset — every attached virtio device replays the initialisation
    status dance and its bridges {!Queue_bridge.resync} from the shadow
    rings (which live in base-server memory and survive), so in-flight
    requests are re-posted exactly once (["iobond.resets"]). *)

val mailbox : t -> Mailbox.t
val base_link : t -> Bm_hw.Pcie.t
val net_link : t -> Bm_hw.Pcie.t
val dma : t -> Bm_hw.Dma.t

val attach_net : t -> ?queue_size:int -> unit -> net_port
(** Create the virtio-net device: PCI accesses cost
    [Profile.pci_emulation_ns]; tx/rx kicks ring the bridge doorbells. *)

val attach_blk : t -> unit -> blk_port
(** A virtio-blk device of the classic 128-entry depth. *)

val resets : t -> int
(** Device resets performed after firmware wedges. *)
