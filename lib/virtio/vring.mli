(** Virtio split virtqueue (descriptor table + avail ring + used ring).

    This is a faithful model of the split-ring layout from the virtio
    spec, in flat int arrays: a descriptor table of lengths, flags and
    links managed through a free list, an avail ring of heads written by
    the driver, and a used ring of (head, written) entries. Indices
    free-run modulo 2^16 as in real hardware. Buffers carry an OCaml
    payload (one cell per head, nulled on reaping) instead of bytes, so
    there are no addresses; lengths are real so DMA cost models can
    meter them. A device pop returns a head, and the device reads the
    request by walking its chain's F_NEXT links.

    The same structure serves as the guest-side ring of a vm-guest
    (where the host backend maps it directly) and as both the guest ring
    and the bm-hypervisor's {e shadow vring} in the IO-Bond path (§3.4,
    Fig. 4). *)

type 'a t

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

val add_like : 'a t -> src:'b t -> head:int -> 'a -> int option
(** [add_like t ~src ~head payload]: {!add} with the descriptors (count,
    lengths, flags) of [src]'s outstanding chain at [head] — IO-Bond
    mirroring a guest chain into its shadow ring. *)

val mirrors : 'a t -> head:int -> src:'b t -> src_head:int -> bool
(** Whether [head] is outstanding and its chain copies [src]'s outstanding
    chain at [src_head] descriptor for descriptor. *)

val pop_used : 'a t -> ('a * int) option
(** Driver-side completion reaping: returns [(payload, written)] for the
    oldest unseen used entry and recycles its descriptors. *)

val next_used : 'a t -> int
(** The head {!pop_used} reaps next, or [-1] when none is pending. *)

val used_pending : 'a t -> int
(** Used entries the driver has not reaped yet. *)

(** {2 Device side} (a [head] that is not outstanding raises [Invalid_argument]) *)

val avail_pending : 'a t -> int
(** Requests the device has not popped yet. *)

val pop_avail : 'a t -> int option
(** Device-side: take the oldest unseen avail entry's head. *)

val payload : 'a t -> head:int -> 'a

val out_bytes : 'a t -> head:int -> int
val in_bytes : 'a t -> head:int -> int
(** Total lengths of the driver→device and of the device→driver
    descriptors. *)

val descriptors : 'a t -> head:int -> int

val set_payload : 'a t -> head:int -> 'a -> unit
(** Device-side write into the request's buffers (e.g. a received packet
    placed into an rx buffer) before completing it. *)

val push_used : 'a t -> head:int -> written:int -> unit
(** Device-side completion: publish [head] in the used ring with
    [written] bytes. *)

(** {2 Inspection} *)

val avail_idx : 'a t -> int
(** Free-running (mod 2^16) driver index — IO-Bond mirrors this into its
    head/tail registers. *)

val used_idx : 'a t -> int

val check_invariants : 'a t -> (unit, string) result
(** Internal consistency check used by the property tests. *)
