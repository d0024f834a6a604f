(** Virtio split virtqueue (descriptor table + avail ring + used ring).

    This is a faithful model of the split-ring layout from the virtio
    spec: a descriptor table managed through a free list, an avail ring
    written by the driver, and a used ring written by the device. Indices
    free-run modulo 2^16 as in real hardware. Buffers carry an arbitrary
    OCaml payload instead of guest-physical bytes; segment addresses
    are synthetic but stable, and segment lengths are real so DMA cost
    models can meter them. The descriptor table itself keeps only the
    flags and the chain links; a chain's segments carry its addresses
    and lengths.

    The same structure serves as the guest-side ring of a vm-guest
    (where the host backend maps it directly) and as both the guest ring
    and the bm-hypervisor's {e shadow vring} in the IO-Bond path (§3.4,
    Fig. 4). *)

type 'a t

type 'a chain = {
  head : int;  (** head descriptor index, the ring's token for the request *)
  out : (int * int) list;  (** driver→device segments as (addr, len) *)
  in_ : (int * int) list;  (** device→driver segments as (addr, len) *)
  payload : 'a;
}

val create : size:int -> 'a t
(** [create ~size] — [size] must be a power of two (spec requirement),
    between 2 and 32768. *)

val set_obs : 'a t -> track:string -> Bm_engine.Obs.t -> unit
(** Install an observability context: {!add} and {!push_used} then emit
    instants on [track] and bump the ["virtio.vring.add"]/["virtio.vring.used"]
    counters. Off (and free) by default. *)

val size : 'a t -> int
val num_free : 'a t -> int
(** Free descriptors in the table. *)

val in_flight_requests : 'a t -> int
(** Requests added but not yet reclaimed by {!pop_used}. *)

(** {2 Driver side} *)

val add : 'a t -> out:int list -> in_:int list -> 'a -> int option
(** [add t ~out ~in_ payload] queues a request whose driver→device
    segments have the byte lengths [out] and device→driver segments
    [in_], one descriptor per segment. Returns the head index, or
    [None] when the table cannot hold the chain. At least one segment
    is required. *)

val pop_used : 'a t -> ('a * int) option
(** Driver-side completion reaping: returns [(payload, written)] for the
    oldest unseen used entry and recycles its descriptors. *)

val used_pending : 'a t -> int
(** Used entries the driver has not reaped yet. *)

(** {2 Device side} *)

val avail_pending : 'a t -> int
(** Requests the device has not popped yet. *)

val pop_avail : 'a t -> 'a chain option
(** Device-side: take the oldest unseen avail entry. *)

val payload : 'a t -> head:int -> 'a
(** Current payload of an outstanding request. Raises [Invalid_argument]
    if [head] is not outstanding. *)

val set_payload : 'a t -> head:int -> 'a -> unit
(** Device-side write into the request's buffers (e.g. a received packet
    placed into an rx buffer) before completing it. *)

val push_used : 'a t -> head:int -> written:int -> unit
(** Device-side completion: publish [head] in the used ring with
    [written] bytes. Raises [Invalid_argument] if [head] is not an
    outstanding popped chain. *)

(** {2 Inspection} *)

val avail_idx : 'a t -> int
(** Free-running (mod 2^16) driver index — IO-Bond mirrors this into its
    head/tail registers. *)

val used_idx : 'a t -> int

val total_out_bytes : 'a chain -> int
val total_in_bytes : 'a chain -> int
val check_invariants : 'a t -> (unit, string) result
(** Internal consistency check used by the property tests. *)
