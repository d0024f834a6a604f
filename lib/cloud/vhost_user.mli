(** The vhost-user control protocol (§3.4.2).

    "All the I/O requests are handled in the user space with vhost-user
    protocol interfacing to cloud infrastructure: the customized DPDK
    vSwitch and the SPDK cloud storage." Before a backend may touch a
    single descriptor, the front-end (QEMU for a vm-guest, the
    bm-hypervisor's device glue for a bm-guest) walks it through the
    vhost-user handshake: feature negotiation, guest memory-table setup,
    and per-vring configuration (addresses, base index, kick/call
    eventfds) before enabling each ring.

    This module implements that state machine with the same legality
    rules as the real protocol: messages out of order are errors, rings
    cannot be enabled before they are fully configured, and a new memory
    table invalidates previously configured rings. *)

type t

type message =
  | Get_features
  | Set_features of int  (** must be a subset of what {!Get_features} offered *)
  | Set_owner
  | Set_mem_table of { regions : int }
  | Set_vring_num of { index : int; size : int }
  | Set_vring_addr of { index : int }
  | Set_vring_base of { index : int; base : int }
  | Set_vring_kick of { index : int }
  | Set_vring_call of { index : int }
  | Set_vring_enable of { index : int; enabled : bool }
  | Get_vring_base of { index : int }
      (** stop the ring and read back its position (used on reset) *)

type reply = Ack | Features of int | Vring_base of int

val create : ?backend_features:int -> unit -> t
(** A backend offering [backend_features] (default
    {!Bm_virtio.Feature.default_net}) with two vrings (one rx/tx
    pair). *)

val handle : t -> message -> (reply, string) result
(** Process one front-end message; [Error] models the backend dropping
    the connection on a protocol violation. *)

val ring_enabled : t -> int -> bool
val negotiated_features : t -> int option
val messages_handled : t -> int

val standard_handshake : t -> driver_features:int -> (unit, string) result
(** Drive the canonical message sequence QEMU/bm-hypervisor sends to
    bring all rings up. Leaves every ring enabled on success. *)
