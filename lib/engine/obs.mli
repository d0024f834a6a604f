(** Observability context threaded through simulated components.

    Bundles an optional {!Trace} sink, an optional {!Metrics} registry,
    and the clock they timestamp against. Every datapath constructor
    takes [?obs] defaulting to {!none}; instrumentation only ever
    {e records} — it must never delay, spawn, or draw randomness — so a
    run with sinks installed is bit-identical to one without. *)

type t

val none : t
(** No sinks; the clock reads 0. Nothing is recorded through it. *)

val create : ?trace:Trace.t -> ?metrics:Metrics.t -> now:(unit -> float) -> unit -> t

val of_sim : ?trace:Trace.t -> ?metrics:Metrics.t -> Sim.t -> t
(** Context whose clock is the simulation clock. *)

val now : t -> float
val trace : t -> Trace.t option
val metrics : t -> Metrics.t option

val enabled : t -> bool
(** At least one sink installed. *)

val watch_bounded : t -> track:string -> 'a Sim.Bounded.bounded -> unit
(** Install a {!Sim.Bounded.set_probe} hook that records the queue depth
    as a trace counter on [track] and counts drops/rejects as metrics
    ["<track>.dropped"] / ["<track>.rejected"]. A no-op when no sink is
    installed, so the queue stays probe-free on unobserved runs. *)
