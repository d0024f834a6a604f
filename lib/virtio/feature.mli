(** Virtio feature bits (the subset this reproduction exercises).

    Feature negotiation follows the virtio spec: the device offers a bit
    set, the driver acknowledges a subset, and the device accepts or
    rejects the result. *)

type t = int
(** A feature bit set. *)

val indirect_desc : t
(** VIRTIO_F_RING_INDIRECT_DESC: chained requests may live in an indirect
    table, consuming a single ring slot. *)

val mrg_rxbuf : t
(** VIRTIO_NET_F_MRG_RXBUF: merged receive buffers. *)

val default_net : t
(** Features offered by the virtio-net devices in this repository. *)

val default_blk : t

val contains : t -> t -> bool
(** [contains set bits] is true when every bit of [bits] is in [set]. *)

val intersect : t -> t -> t
