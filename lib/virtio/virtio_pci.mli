(** Virtio-over-PCI transport: config space and device initialisation.

    Models the register interface a guest uses to discover, configure and
    drive a virtio device (§3.4.1: "The FPGA logic in IO-Bond emulates a
    PCI interface (i.e., PCI configure space, BAR0, BAR1, PCIe Cap, etc)
    for each virtio device"). Every register access invokes the
    transport's cost hook — for IO-Bond that is a 1.6 µs forwarded access
    (0.8 µs guest→FPGA plus 0.8 µs FPGA→mailbox, §3.4.3); for a vm-guest
    it is a trapped access handled by the vm-hypervisor.

    The {!probe} function performs the spec's initialisation sequence and
    reports how many register accesses it took, which the §6 experiment
    uses to quantify FPGA vs ASIC response time. *)

type register =
  | Vendor_id
  | Device_id
  | Device_features
  | Driver_features
  | Device_status
  | Queue_select
  | Queue_size
  | Queue_addr
  | Queue_notify
  | Isr_status
  | Config of int  (** device-specific config space, by offset *)

type kind = Net | Blk

type t

val create : kind:kind -> num_queues:int -> queue_size:int -> on_access:(unit -> unit) -> t
(** [on_access] is called once per register read/write — the transport
    charges its latency there. *)

val access_count : t -> int

val read : t -> register -> int
val write : t -> register -> int -> unit

val driver_ok : t -> bool
(** True once the driver completed initialisation ([DRIVER_OK] set). *)

val probe : t -> driver_features:Feature.t -> (Feature.t * int * int, string) result
(** [probe t ~driver_features] runs the standard virtio initialisation
    dance (reset, ACKNOWLEDGE, DRIVER, feature negotiation, queue
    discovery, FEATURES_OK, DRIVER_OK). On success returns
    [(features, num_queues, queue_size)]. *)
