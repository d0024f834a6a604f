(** IO-Bond packet-processing offload (§6).

    "We plan to add more network-related functions in IO-Bond to offload
    the packet processing from the bm-hypervisor so that lower-cost CPUs
    can be used by the base." This module is that plan: a flow table in
    the FPGA. The first packet of a flow takes the slow path through the
    bm-hypervisor's PMD thread, which installs a rule; subsequent packets
    are classified and forwarded entirely in hardware, costing no base
    CPU (cf. the Azure SmartNIC design the paper cites). *)

type t

val create : unit -> t
(** A flow table of 2048 entries (FPGA TCAM-sized). Installation beyond
    capacity evicts the least recently installed rule. *)

val occupancy : t -> int

val classify : t -> Bm_virtio.Packet.t -> [ `Offloaded | `Slow_path ]
(** Look the packet's flow (src, dst, protocol) up; counts a hit or a
    miss. *)

val install : t -> Bm_virtio.Packet.t -> unit
(** Install the packet's flow after slow-path processing. Idempotent. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val fpga_forward_ns : float
(** In-FPGA per-packet pipeline cost for an offloaded packet (latency
    only — no base-core time). *)
