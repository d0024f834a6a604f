(** One virtqueue bridged across IO-Bond: guest vring ↔ shadow vring.

    Fig. 4/Fig. 6 of the paper: the guest's ring lives in compute-board
    memory; the bm-hypervisor's {e shadow vring} lives in base-server
    memory; IO-Bond's DMA engine keeps them synchronised. Requests flow
    guest→shadow (descriptors plus driver→device payload bytes) and
    completions flow shadow→guest (used entry plus device→driver bytes),
    with an MSI to the guest per completion batch.

    All DMA crossings are metered through the compute-board x4 link, the
    base x8 link and the shared 50 Gbit/s engine, so congestion between
    queues and guests emerges from the hardware models. *)

type 'a t

type 'a request = {
  token : int;  (** shadow-ring head; identifies the request to {!complete} *)
  payload : 'a;
}

val create :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  name:string ->
  guest:'a Bm_virtio.Vring.t ->
  dma:Bm_hw.Dma.t ->
  guest_link:Bm_hw.Pcie.t ->
  base_link:Bm_hw.Pcie.t ->
  mailbox:Mailbox.t ->
  'a t
(** With [obs], the bridge traces on track ["iobond.<name>"]: doorbell
    instants, per-chain [forward] spans, shadow [pending] counter
    samples, and [guest_irq] instants, plus the ["iobond.doorbells"],
    ["iobond.forwarded"], ["iobond.completed"] and ["iobond.guest_irqs"]
    metrics. With [fault], both mirror engines stall while a
    [Firmware_wedge] window is open (use {!resync} after the reset), and
    a full shadow ring is retried under a backoff policy. *)

val set_guest_interrupt : 'a t -> (unit -> unit) -> unit
(** MSI hook toward the guest (coalesced: one per completion batch). *)

val set_work_hint : 'a t -> (unit -> unit) -> unit
(** Invoked when the shadow ring transitions from empty to non-empty:
    how a poll-mode backend thread learns there is work without the
    simulator paying for idle poll iterations. The real PMD thread spins;
    the hint models the moment its poll would first see the new head. *)

(** {2 Guest side} *)

val guest_notify : 'a t -> unit
(** Doorbell: a posted register write on the compute-board link. Does not
    block the guest; the forward mirror engine starts after the register
    hop. Callable from process or scheduler context. *)

(** {2 Hypervisor side (poll-mode)} *)

val pending : 'a t -> int
(** Mirrored requests awaiting the backend — a host-memory read. *)

val pop : 'a t -> 'a request option
(** [None] while the bridge is paused, even if work is pending. *)

val pause : 'a t -> unit
(** Stop handing requests to the backend; they accumulate safely in the
    shadow ring (its state is shared memory, which is what lets a new
    bm-hypervisor process take over — the Orthus-style live upgrade the
    paper's §6 builds on). *)

val resume : 'a t -> unit
(** Resume and re-arm the work hint if requests accumulated. *)

val complete : 'a t -> 'a request -> ?payload:'a -> written:int -> unit -> unit
(** Publish a completion on the shadow ring. [payload] replaces the
    request's payload (a received packet written into a posted rx
    buffer). Cheap; the device only learns about it via {!flush}. *)

val flush : 'a t -> (unit -> unit) -> unit
(** [flush t k]: tail-register write (one base-link register hop,
    {!Mailbox.write_tail}) starting the completion mirror engine, then
    [k]. A callback chain; a process waits for it with
    {!Bm_engine.Sim.await}. *)

val resync : 'a t -> unit
(** Post-reset recovery (process or scheduler context): re-publish the
    head register from the shadow ring's avail index, re-arm the work
    hint, and restart both mirror engines. The shadow ring lives in
    base-server memory and survives an IO-Bond wedge, so every in-flight
    request is preserved and re-posted exactly once — head/tail values
    are absolute indices, making the republication idempotent. *)

(** {2 Statistics} *)

val completed : 'a t -> int
(** Completions mirrored shadow→guest. *)

val check_invariants : 'a t -> (unit, string) result
(** Both rings' invariants, and every outstanding shadow chain copies the
    guest chain it is tagged with. *)
