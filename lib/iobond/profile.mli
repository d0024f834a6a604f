(** IO-Bond silicon profiles.

    The deployed IO-Bond is a low-cost FPGA: one PCI read/write from the
    bm-guest to the front-end takes 0.8 µs, and another 0.8 µs from
    IO-Bond to its mailbox registers, so an emulated PCI access costs a
    constant 1.6 µs (§3.4.3). The paper projects a 75%% reduction —
    0.8 µs → 0.2 µs per hop — for an ASIC implementation (§6). *)

type t = Fpga | Asic

val register_ns : t -> float
(** Latency of one PCI register hop. *)

val pci_emulation_ns : t -> float
(** Cost of one emulated PCI config access as seen by the guest: two
    hops (guest→IO-Bond, IO-Bond→mailbox). *)

val dma_gbit_s : t -> float
(** Internal DMA engine throughput (50 Gbit/s for both profiles —
    the paper's ASIC projection targets register latency, not DMA). *)

val dma_setup_ns : t -> float
(** Per-copy descriptor-fetch/doorbell overhead inside the engine. *)

val name : t -> string

(** {2 Bounded per-VF/per-queue metric labels}

    {!Vf} devices emit per-function and per-queue counters; these
    helpers keep the metric cardinality bounded regardless of how many
    functions a device exposes — indexes past the caps share one
    overflow bucket. *)

val max_labeled_vfs : int
(** Distinct VF labels before collapsing (8). *)

val vf_label : int -> string
(** ["vf0"].."vf7"], else ["vf_other"]. *)

val queue_label : int -> string
(** ["q0"].."q3"], else ["q_other"]. *)
