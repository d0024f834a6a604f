(** Virtio block device (front-end view).

    Requests follow the virtio-blk layout: a 16-byte header descriptor,
    the data segments, and a 1-byte status descriptor — so a 4 KB read is
    a 3-descriptor chain. Completion is conveyed
    to the submitting process through an ivar carried in the payload. *)

type op = Read | Write | Flush

type req = {
  op : op;
  sector : int;
  bytes : int;
  submitted_at : float;
  mutable failed : bool;
      (** set by the backend before completion when the request was
          refused downstream (storage admission queue full); the guest
          sees a completed-with-error request it may retry *)
  done_ : float Bm_engine.Sim.Ivar.ivar;
      (** filled with the completion timestamp when the request is reaped *)
}

type t

val create : ?obs:Bm_engine.Obs.t -> on_access:(unit -> unit) -> unit -> t
(** A device with one 128-entry queue, virtio-blk's classic depth. With
    [obs], the ring traces on ["virtio.blk"] and submissions/reaps are
    counted and metered. *)

val pci : t -> Virtio_pci.t
val ring : t -> req Vring.t

val set_notify : t -> (unit -> unit) -> unit
val set_interrupt : t -> (unit -> unit) -> unit
val fire_interrupt : t -> unit

val probe : t -> (unit, string) result

val make_req : op:op -> sector:int -> bytes:int -> now:float -> req

val submit : t -> req -> bool
(** Queue a request and notify; [false] if the ring is full. *)

val reap : t -> int
(** Reap completions, filling each request's [done_] ivar with the
    current time; returns the number reaped. *)
