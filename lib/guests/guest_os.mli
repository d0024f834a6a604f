(** Guest kernel cost model.

    Both bm-guests and vm-guests run the same image and the same kernel
    (§4.2), so the stack costs below apply to both; the substrates differ
    only in what happens underneath the virtio drivers. Values are
    calibrated for the evaluation kernel (3.10-era CentOS 7) on the Xeon
    E5-2682 v4. *)

type t = {
  syscall_ns : float;  (** user/kernel crossing *)
  udp_tx_ns : float;  (** per-packet UDP send path (sendto → driver) *)
  udp_rx_ns : float;  (** per-packet UDP receive path (softirq → recv) *)
  tcp_tx_ns : float;
  tcp_rx_ns : float;
  irq_entry_ns : float;  (** interrupt handler entry/exit *)
  blk_submit_ns : float;  (** block layer submit path *)
  blk_complete_ns : float;
  dpdk_tx_ns : float;  (** kernel-bypass per-packet cost (§4.3's DPDK tool) *)
  dpdk_rx_ns : float;
}

val default : t
(** The evaluation kernel: CentOS 7's 3.10.0-514.26.2.el7 (§4.2). *)

val centos7_3_10 : t
val ubuntu18_4_19 : t
val modern_5_4 : t

val for_kernel : string -> t option

val net_tx_ns : t -> kind:Bm_virtio.Packet.protocol -> count:int -> float
(** Stack cost of transmitting a burst. *)

val net_rx_ns : t -> kind:Bm_virtio.Packet.protocol -> count:int -> float

val dpdk_tx_ns_of : t -> count:int -> float
val dpdk_rx_ns_of : t -> count:int -> float
