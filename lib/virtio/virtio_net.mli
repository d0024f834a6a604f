(** Virtio network device (front-end view).

    Owns a tx and an rx virtqueue plus the PCI presence. The driver-side
    operations below are what a guest kernel performs; the device side
    (IO-Bond, or a vm-host's vhost backend) works on the rings directly
    via {!tx_ring}/{!rx_ring} and the notification hooks.

    The virtio-net header (12 bytes with mergeable rx buffers) is
    accounted on every descriptor chain, as on real hardware. *)

type t

val create : ?obs:Bm_engine.Obs.t -> ?queue_size:int -> on_access:(unit -> unit) -> unit -> t
(** [create ~on_access ()] — [queue_size] defaults to 256 entries per
    ring, the paper-era default for virtio-net. [on_access] prices one
    PCI register access (see {!Virtio_pci.create}). With [obs], the
    rings trace on ["virtio.net.tx"]/["virtio.net.rx"], kicks and drops
    are recorded, and received packets feed the ["virtio.net.rx_pkts"]
    meter. *)

val pci : t -> Virtio_pci.t
val tx_ring : t -> Packet.t Vring.t
val rx_ring : t -> Packet.t Vring.t

(** {2 Transport wiring} *)

val set_notify : t -> (unit -> unit) -> unit
(** Hook invoked when the driver writes the tx queue-notify register.
    Reposted rx buffers are announced by the backend that reposts them
    (its refill hook), not through this device. *)

val set_interrupt : t -> (unit -> unit) -> unit
(** Hook invoked by the device side after pushing used entries, when
    interrupts are enabled (a PMD-polling guest may disable them). *)

val fire_interrupt : t -> unit
(** Device side: raise the configured interrupt hook. *)

(** {2 Driver side} *)

val probe : t -> (unit, string) result
(** Run PCI discovery and initialisation for this device. *)

val xmit : t -> Packet.t -> bool
(** Queue a packet for transmission and notify. Returns [false] when the
    tx ring is full (the packet is dropped, as a kernel would after its
    own queue backs up). *)

val refill_rx : t -> target:int -> int
(** Top the rx ring up to [target] posted buffers (1.5 KB each + header);
    returns how many were added. Does not notify — rx kicks are only
    needed when the device ran dry, and the device side polls. *)

val reap_tx : t -> int
(** Recycle completed tx descriptors; returns how many. *)

val reap_rx : t -> Packet.t list
(** Collect received packets (oldest first) and recycle their buffers. *)

val tx_dropped : t -> int
