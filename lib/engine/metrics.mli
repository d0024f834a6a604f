(** Named-instrument registry for simulation components.

    A registry maps dotted names ("hw.dma.copy_ns", "hyp.vmexit.msr") to
    instruments — plain counters, {!Stats.Histogram}s, or
    {!Stats.Meter}s — created on first use, so call sites need no setup.
    Registries snapshot to a renderable table and merge across runs.
    Components record through {!Obs} probes, which call the recording
    functions below only when a registry is installed. *)

type t

val create : unit -> t

val incr : t -> ?by:float -> string -> unit
(** Bump a counter (registered on first use; default increment 1). *)

val observe : t -> ?lo:float -> ?hi:float -> ?precision:float -> string -> float -> unit
(** Record one value into a histogram. The optional geometry applies only
    on first registration (see {!Stats.Histogram.create}). *)

val mark : t -> ?n:int -> string -> now:float -> unit
(** Mark [n] events (default 1) on a meter at simulated time [now]. *)

val counter_value : t -> string -> float
(** 0 when the name is unregistered or not a counter. *)

val histogram : t -> string -> Stats.Histogram.t option
val meter : t -> string -> Stats.Meter.t option

val names : t -> string list
(** Registration order. *)

val is_empty : t -> bool

val merge : t -> t -> t
(** Fresh registry combining both: counters add, histograms and meters
    merge per {!Stats}. Raises [Invalid_argument] if a name is registered
    with different kinds. Inputs are not mutated. *)

val table_header : string list

val rows : t -> string list list
(** One row per instrument, sorted by name (so dotted prefixes group by
    component); shaped for {!table_header}. *)
