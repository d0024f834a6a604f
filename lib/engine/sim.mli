(** Deterministic discrete-event simulator with lightweight processes.

    Processes are OCaml 5 fibers: plain [unit -> unit] functions that may
    perform the blocking operations below ({!delay}, {!suspend}, …). The
    scheduler runs one event at a time off a two-lane agenda: timed
    events sit in a binary heap, while zero-delay events (fork, spawn,
    suspend resumes — the majority in I/O-heavy runs) take a FIFO hot
    lane that skips the heap entirely. A single global sequence counter
    spans both lanes, so ties are broken by insertion order and the
    execution order is identical to a pure heap scheduler: a simulation
    is a pure function of its inputs and RNG seeds.

    A component whose process would only wait — hold for a computed
    time, take a queued item or a resource unit, hand on — is better
    written as a callback chain: {!schedule}d steps, with
    {!Bounded.recv_callback}, {!Bounded.send_callback} and
    {!Resource.acquire_callback} where a process would park. Each of
    those wakes a parked chain with the one zero-delay event a parked
    process's resume takes, so a chain runs on the same [(time, seq)]
    keys as the process it replaces, without an effect round trip per
    step. Processes call such a chain through {!await}.

    The blocking operations must only be called from within a process
    running under {!run} (they raise [Not_in_simulation] otherwise);
    {!clock} needs only a running {!run}. *)

type t
(** A simulation instance: clock + agenda. *)

exception Not_in_simulation
(** Raised when a blocking operation is performed outside {!run}. *)

val create : unit -> t

val now : t -> float
(** Current simulated time in nanoseconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs callback [f] (not a full process) at
    [now t +. delay]. Raises [Invalid_argument] if [delay] is negative
    (or NaN) — an explicit guard, not an assert, so it survives release
    builds. A zero [delay] takes the O(1) hot lane. *)

type timer
(** A handle on an event scheduled with {!schedule_cancellable}. *)

val schedule_cancellable : t -> delay:float -> (unit -> unit) -> timer
(** [schedule_cancellable t ~delay f] is {!schedule}, returning a handle
    that {!cancel} can take the event back with. The event gets the next
    [(time, seq)] key exactly as {!schedule} would give it, so a
    cancellable event that is never cancelled runs where a plain one
    would. It always sits in the timed heap (also at zero delay), which
    is what lets {!cancel} find it in O(log n). *)

val cancel : t -> timer -> unit
(** [cancel t h] removes [h]'s event from the agenda if it has not run
    yet: it will never run, and it stops counting in {!pending_events}.
    Cancelling an event that already ran or was already cancelled does
    nothing, also after its heap slot has gone to a newer event: the
    handle carries its event's sequence number, which no other event
    shares. *)

val events_executed : t -> int
(** Events executed by {!run} so far (both lanes) — the numerator of the
    engine's events/sec throughput metric. *)

val pending_events : t -> int
(** Events currently scheduled and not yet executed. *)

type stats = {
  executed : int;  (** total events run (= [lane + heap]) *)
  lane : int;  (** events run off the zero-delay FIFO hot lane *)
  heap : int;  (** events run off the binary-heap timed lane *)
  pending_lane : int;
  pending_heap : int;
  lane_capacity : int;  (** current hot-lane ring capacity *)
  heap_capacity : int;  (** current heap backing-array capacity *)
}

val stats : t -> stats
(** Per-lane execution counters and agenda capacities — what the engine
    bench reports next to its allocations-per-event probe. Pure
    observation. *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn t body] creates a new process that starts at the current time
    (or at simulation start). Can be called from inside or outside a
    running simulation. *)

val run : ?until:float -> t -> unit
(** [run t] executes events until the agenda drains or simulated time
    exceeds [until] (absolute, in ns). After returning with [until], the
    clock is set to [until]. Exceptions raised by processes propagate. *)

(** {2 Blocking operations — only valid inside a process} *)

val delay : float -> unit
(** Suspend the calling process for a non-negative duration. *)

val clock : unit -> float
(** Current time of the simulator whose {!run} is executing on this
    domain. It works inside a process and also in a plain callback
    scheduled with {!schedule}, since it reads a
    domain-local pointer that the run loop sets rather than performing
    an effect. Outside [run] it still raises [Not_in_simulation]. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend f] parks the calling process and hands [f] a resume function.
    Calling the resume function (at most once; later calls raise
    [Invalid_argument]) schedules the process to continue with the given
    value at the resumer's current time. This is the primitive from which
    {!Ivar}, {!Bounded} and {!Resource} are built. *)

val await : (('a -> unit) -> unit) -> 'a
(** [await register] runs a callback chain from a process: it parks the
    calling process and hands [register] a continuation, which the
    chain calls last, with its result. The continuation resumes the
    process {e inline}, inside the event that calls it, instead of
    scheduling a resume event as {!suspend} does. A chain written as
    {!schedule}d steps therefore runs, awaited, on exactly the
    [(time, seq)] keys of a process performing the same {!delay}s
    itself, and the awaiting process continues in the event where that
    process would have continued. Calling the continuation a second
    time raises [Invalid_argument]; it may also be called before
    [register] returns. *)

val fork : (unit -> unit) -> unit
(** Spawn a sibling process from inside a process. *)

(** {2 Write-once cells} *)

module Ivar : sig
  type 'a ivar

  val create : unit -> 'a ivar
  val fill : 'a ivar -> 'a -> unit
  (** Fills the cell and wakes all readers. Raises [Invalid_argument] if
      already filled. *)

  val read : 'a ivar -> 'a
  (** Returns immediately if filled, otherwise blocks until {!fill}. *)

  val is_filled : 'a ivar -> bool
end

(** {2 Bounded FIFO queues with a pluggable full-queue policy}

    The overload-control primitive: a [Bounded.bounded] has a fixed
    capacity and an explicit policy for what happens to a send that finds
    the queue full. Every queue keeps conservation counters —
    at any instant,

    {[ sent = delivered + dropped + rejected + length + waiting_senders ]}

    so lost work is always visible. *)

module Bounded : sig
  type policy =
    | Block  (** Backpressure: the sender parks until a slot frees. *)
    | Drop_tail  (** The new item is dropped; [send] returns [`Dropped]. *)
    | Reject  (** Nothing changes; [send] returns [`Rejected]. *)

  type probe_event = [ `Enqueue | `Deliver | `Drop | `Reject ]

  type 'a bounded

  val create : capacity:int -> policy:policy -> unit -> 'a bounded
  (** Raises [Invalid_argument] unless [capacity > 0]. *)

  val send : 'a bounded -> 'a -> [ `Sent | `Dropped | `Rejected ]
  (** Under [Block] this may suspend the calling process (and therefore
      must run inside one when the queue is full); under the other two
      policies it never blocks and is safe from scheduler callbacks. *)

  val recv_callback : t -> 'a bounded -> ('a -> unit) -> unit
  (** [recv_callback t q f] receives for a server written as scheduler
      callbacks. With an item queued it takes it at once (counters,
      probe notes, the oldest parked [Block] sender let in) and calls
      [f] with it before returning. Otherwise [f] parks among the
      receivers, FIFO, and the send that hands it an item schedules
      [f item] as one zero-delay event on [t] — the event a parked
      fiber's resume would take — so a callback server runs on the same
      [(time, seq)] keys as a fiber that receives and {!delay}s. It
      never blocks, so it is safe from callbacks and processes alike; a
      process receives with [await (recv_callback t q)]. A callback that parks while no
      other receiver is parked and no handoff is pending waits in the
      queue's own slot, so parking and the handoff allocate nothing;
      receivers are served in the order they parked either way. *)

  val send_callback : t -> 'a bounded -> 'a -> ([ `Sent | `Dropped | `Rejected ] -> unit) -> unit
  (** [send_callback t q v k] is {!send} for a sender written as
      scheduler callbacks: it sends [v] and calls [k] with the outcome
      before returning, except where {!send} would park — a [Block]
      queue that is full — where [v] waits among the parked senders and
      the receive that lets it in schedules [k `Sent] as one zero-delay
      event on [t], the event a parked fiber's resume takes. *)

  val length : 'a bounded -> int

  val sent : 'a bounded -> int
  val delivered : 'a bounded -> int
  val dropped : 'a bounded -> int
  val rejected : 'a bounded -> int
  val waiting_senders : 'a bounded -> int

  val set_probe : 'a bounded -> (probe_event -> depth:int -> unit) -> unit
  (** Install an instrumentation hook, called after every queue transition
      with the post-transition depth. The hook must not delay, spawn or
      draw randomness (see {!Obs.watch_bounded}, which wires it to the
      metrics/trace sinks). *)
end

(** {2 Counting semaphores with FIFO admission} *)

module Resource : sig
  type resource

  val create : capacity:int -> resource
  val in_use : resource -> int
  val waiting : resource -> int

  val acquire : resource -> unit
  (** Blocks until a unit is available. Requests are granted strictly in
      arrival order (no barging). *)

  val acquire_callback : t -> resource -> (unit -> unit) -> unit
  (** [acquire_callback t r f] is [acquire r] for a callback chain. When a unit is free and nobody waits, it takes it and calls
      [f] before returning. Otherwise [f] queues among the waiters, fibers
      and callbacks alike in arrival order, and the {!release} that
      grants it schedules [f] as one zero-delay event on [t] — the event
      a parked fiber's resume takes — so a chain acquiring here runs on
      the same [(time, seq)] keys as a fiber calling {!acquire}. *)

  val release : resource -> unit

  val with_resource : resource -> (unit -> 'a) -> 'a
  (** Acquire, run, release (also on exception). *)
end
