(** Minimum priority queue on [(time, sequence)] keys.

    An array-backed binary heap in structure-of-arrays layout: times in
    a flat unboxed float array, sequence numbers and payload slot
    indices in int arrays. Payloads sit in stable slots and never move,
    so a sift stores only immediates and flat floats (no write barrier)
    and {!push} and {!pop_into} allocate nothing. Ties on [time] are
    broken by an insertion sequence number supplied by the caller, which
    makes event ordering — and therefore whole simulations —
    deterministic.

    Vacated slots are nulled out, so popped or removed values (event
    closures, i.e. whole fibers) never outlive their removal. *)

type 'a t

type cell = { mutable at : float }
(** A flat one-float record: reading or writing [at] never boxes, and
    passing the record to a function passes a pointer. The
    zero-allocation entry points take and return key times through one,
    because a bare [float] argument or result is boxed on every call
    that is not inlined — and dune's default dev profile compiles with
    [-opaque], which inlines nothing across modules. *)

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array capacity (exposed for tests and benchmarks). *)

val add : 'a t -> time:float -> seq:int -> 'a -> unit
(** [add q ~time ~seq v] inserts [v] with priority [(time, seq)]: the
    boxed-[time] form of {!push}, for tests and cold paths. *)

(** {2 Zero-allocation entry points — the simulator's inner loop}

    Allocation-free except when the backing arrays double. The
    accessors on the minimum are undefined on an empty queue; check
    {!length} first. *)

val push : 'a t -> cell -> seq:int -> 'a -> int
(** [push q c ~seq v] inserts [v] with priority [(c.at, seq)] and
    returns the slot [v] occupies until it is popped or removed. The
    pair [(slot, seq)] identifies the entry for {!remove}. *)

val min_le_cell : 'a t -> cell -> seq:int -> bool
(** [min_le_cell q c ~seq] is true iff the minimum key is [<= (c.at,
    seq)] lexicographically — the run loop's lane-versus-heap guard,
    without materializing an option or boxing a float. *)

val min_le : 'a t -> time:float -> seq:int -> bool
(** {!min_le_cell} against a [time] the caller already holds boxed
    (the run loop's horizon). *)

val pop_into : 'a t -> cell -> 'a
(** Remove the minimum element, write its time into the cell and
    return its payload. *)

val remove : 'a t -> slot:int -> seq:int -> bool
(** [remove q ~slot ~seq] removes the entry {!push} returned [slot]
    for, if it is still queued, and answers whether it did. An entry
    already popped or removed is left alone, also when its slot has
    since been reused by a newer entry (whose [seq] differs). *)

(** {2 Boxed convenience API}

    The simulator uses only the entry points above. These stay as the
    model tests' entry points: the tests read whole keys back as plain
    values and compare the heap against a list model. *)

val peek : 'a t -> (float * int * 'a) option
(** [peek q] is the minimum element without removing it. *)

val pop : 'a t -> (float * int * 'a) option
(** [pop q] removes and returns the minimum element. *)

val clear : 'a t -> unit
(** Drop every element. Keeps the backing arrays' capacity (a cleared
    simulation agenda is usually refilled to the same size) but releases
    every held reference. *)
