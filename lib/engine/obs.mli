(** Observability context threaded through simulated components.

    Bundles an optional {!Trace} sink and an optional {!Metrics}
    registry with the simulation clock they timestamp against. Every
    datapath constructor takes [?obs] defaulting to {!none};
    instrumentation only ever {e records} — it must never delay, spawn,
    or draw randomness — so a run with sinks installed is bit-identical
    to one without.

    {2 One idiom}

    Components record only through the probes below; nothing outside
    this module calls {!Trace} or {!Metrics} to record (CI greps for
    it). A probe is one unguarded call:

    - {e One clock.} Every stamped event reads the context's clock, the
      [Sim.now] of the simulator {!of_sim} was given, which is the
      simulator the component runs on. The clock is read only for an
      installed sink.
    - {e Arguments that cost nothing.} A probe's arguments are literals,
      ints, names built once (at creation, or at a rare event such as a
      fault window), or floats the caller already computes for its own
      use. Arithmetic done only for a sink — an int converted to a
      float, a unit conversion — happens inside the probe, behind the
      sink: the dev profile compiles every library [-opaque], so a float
      built at the call site is boxed on every call, sink or not. *)

type t

val none : t
(** No sinks. Nothing is recorded through it. *)

val of_sim : ?trace:Trace.t -> ?metrics:Metrics.t -> Sim.t -> t
(** Context whose clock is the simulation clock. *)

(** {2 Trace probes} *)

val instant : t -> track:string -> string -> unit
val begin_span : t -> track:string -> string -> unit
val end_span : t -> track:string -> string -> unit

val counter : t -> track:string -> string -> int -> unit
(** A trace counter at an integer level (a queue depth). *)

(** {2 Metric probes} *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to counter [name]. *)

val add_float : t -> string -> float -> per:float -> unit
(** [add_float t name x ~per] adds [x /. per] to counter [name]: a
    float quantity the caller already has, converted to the counter's
    unit behind the sink ([~per:1e9] books nanoseconds as seconds;
    [~per:1.0] books [x] exactly). *)

val mark : t -> n:int -> string -> unit
(** [n] events on a meter. *)

val observe : t -> ?lo:float -> ?hi:float -> ?precision:float -> string -> float -> unit
(** One sample into histogram [name]; the geometry applies on its first
    registration (see {!Metrics.observe}). *)

val start : t -> float
(** The clock with a metrics registry installed, else [0.]: the start of
    a duration recorded with {!observe_since}. *)

val observe_since : t -> string -> float -> unit
(** [observe_since t name start] records the clock minus [start] into
    histogram [name]. *)

(** {2 Both sinks} *)

val depth : t -> track:string -> histogram:string -> int -> unit
(** A queue-depth sample: into histogram [histogram], created over
    [\[1, 1e4\]] by its first sample, and as a ["depth"] trace counter
    on [track]. *)

val watch_bounded : t -> track:string -> 'a Sim.Bounded.bounded -> unit
(** Install a {!Sim.Bounded.set_probe} hook that records the queue depth
    as a trace counter on [track] and counts drops/rejects as metrics
    ["<track>.dropped"] / ["<track>.rejected"] (names built here, once).
    A no-op when no sink is installed, so the queue stays probe-free on
    unobserved runs. *)
