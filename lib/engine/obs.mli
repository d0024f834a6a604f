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

(** {2 Probes}

    One-line probes for hot paths. Each reads the clock, and converts
    its int argument, only when the matching sink is installed: the dev
    profile compiles every library [-opaque], so a [~now:(Sim.now sim)]
    or [~by:(float_of_int n)] argument to a {!Trace} or {!Metrics}
    [_opt] entry point is a boxed float built on every call, sink or
    not. [instant], [mark] and [depth] are stamped with the context's
    clock, the [_at] probes with [Sim.now sim]. *)

val instant : t -> track:string -> string -> unit
val mark : t -> n:int -> string -> unit
(** [n] events on a meter. *)

val depth : t -> track:string -> histogram:string -> int -> unit
(** A queue-depth sample: into histogram [histogram], created over
    [\[1, 1e4\]] by its first sample, and as a ["depth"] trace counter
    on [track]. *)

val instant_at : t -> track:string -> string -> Sim.t -> unit
val begin_span_at : t -> track:string -> string -> Sim.t -> unit
val end_span_at : t -> track:string -> string -> Sim.t -> unit

val counter_at : t -> track:string -> string -> Sim.t -> int -> unit
(** A trace counter at an integer level (a queue depth). *)

val mark_at : t -> n:int -> string -> Sim.t -> unit

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to counter [name]. *)

val start_at : t -> Sim.t -> float
(** [Sim.now sim] with a metrics registry installed, else [0.]: the
    start of a duration recorded with {!observe_since}. *)

val observe_since : t -> string -> Sim.t -> float -> unit
(** [observe_since t name sim start] records [Sim.now sim -. start]
    into histogram [name]. *)

val watch_bounded : t -> track:string -> 'a Sim.Bounded.bounded -> unit
(** Install a {!Sim.Bounded.set_probe} hook that records the queue depth
    as a trace counter on [track] and counts drops/rejects as metrics
    ["<track>.dropped"] / ["<track>.rejected"]. A no-op when no sink is
    installed, so the queue stays probe-free on unobserved runs. *)
