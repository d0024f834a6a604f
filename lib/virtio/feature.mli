(** Virtio feature bits (the subset this reproduction exercises).

    Feature negotiation follows the virtio spec: the device offers a bit
    set, the driver acknowledges a subset, and the device accepts or
    rejects the result. *)

type t = int
(** A feature bit set. *)

val mrg_rxbuf : t
(** VIRTIO_NET_F_MRG_RXBUF: merged receive buffers. *)

val default_net : t
(** Features offered by the virtio-net devices in this repository:
    VIRTIO_F_VERSION_1, merged receive buffers and checksum offload.
    The rings implement neither indirect descriptors nor EVENT_IDX
    suppression, so neither is offered. *)

val default_blk : t
(** Features offered by the virtio-blk devices: VIRTIO_F_VERSION_1. *)

val contains : t -> t -> bool
(** [contains set bits] is true when every bit of [bits] is in [set]. *)

val intersect : t -> t -> t
