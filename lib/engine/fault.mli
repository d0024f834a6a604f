(** Deterministic fault injection and recovery combinators.

    Production BM-Hive stays sellable because its failure modes are
    bounded: boards, FPGAs and base servers fail, and §3.4's shadow-ring
    machinery plus the control plane's migrations exist to recover from
    them. This module makes those failures first-class in the
    simulation: a {!plan} schedules typed fault events at simulated
    times, an injector ({!t}) opens/closes fault windows on the agenda
    and notifies subscribers, and {!Guard} provides the
    retry-with-backoff/circuit-breaker semantics the datapath
    wraps its fallible operations in.

    Everything is a pure function of the plan's seed: same seed + same
    spec ⇒ the same events at the same times ⇒ bit-identical recovery
    behaviour, so MTTR and blackout numbers are regression-testable. *)

(** {2 Fault taxonomy} *)

type kind =
  | Link_down  (** PCIe link drops and retrains; traffic stalls *)
  | Dma_stall  (** IO-Bond's internal DMA engine stops streaming *)
  | Mailbox_drop  (** mailbox register writes are lost in the window *)
  | Firmware_wedge
      (** the IO-Bond firmware wedges; a device reset replays the
          virtio status dance and resumes from the shadow rings *)
  | Pmd_crash  (** a bm-hypervisor backend process dies and respawns *)
  | Server_failure  (** the base server fails; victims must evacuate *)
  | Fabric_link_down
      (** a datacenter fabric link goes dark; traffic offered to it is
          dropped until repair. The single-host datapath ignores this
          kind — fleet-level consumers ({!Bmhive.Scenario}) subscribe
          and map each window onto a {!Bm_fabric.Fabric} link. *)
  | Vf_stall
      (** a virtual function's queue pair stops draining (the SR-IOV
          analogue of [Dma_stall]); submissions wait out the window *)
  | Vf_reassign_timeout
      (** the device's VF reassignment doorbell wedges: an in-flight
          reassignment's drain step stalls for the window, stretching
          the blackout. Recovery is Guard-wrapped in {!Bm_iobond.Vf}. *)

val all_kinds : kind list
val kind_name : kind -> string

(** {2 Fault plans} *)

type event = { kind : kind; at : float; duration_ns : float }

type plan = { seed : int; horizon_ns : float; events : event list }
(** [events] sorted by time (ties broken by kind order), all within
    [\[0, horizon_ns)]. *)

val make_plan : seed:int -> ?horizon_ns:float -> (kind * int) list -> plan
(** [make_plan ~seed counts] draws [count] event start times per kind,
    uniformly over [horizon_ns] (default 2 ms of simulated time), from a
    SplitMix64 stream seeded with [seed]. Durations are the per-kind
    defaults. Deterministic: equal inputs give equal plans. *)

val parse_spec : string -> (plan, string) result
(** Parse a ["<seed>:<spec>"] command-line fault plan, where <spec> is a
    comma-separated list of [kind=count] pairs (kind names as printed by
    {!kind_name}), optionally including [horizon=<ns>] (finite, > 0).
    The word [default] stands for one or two events of every
    recoverable kind. A bad token is an [Error] naming it, never an
    exception. Examples: ["42:link_down=2,firmware_wedge=1"],
    ["7:default"]. *)

val render_plan : plan -> string
(** One line per event — used by tests and the determinism smoke. *)

(** {2 Injector} *)

type t
(** A per-run injector: owns the plan's windows and subscriber lists.
    Components hold a [t] (default {!none}) and either poll
    {!is_active} and wait with {!when_clear} (callback chains) or
    {!block_until_clear} (processes) at their injection points, or
    {!subscribe} to crash-style events. *)

val none : t
(** The null injector: never active, subscriptions are dropped,
    {!when_clear} continues and {!block_until_clear} returns
    immediately. Keeping it the default
    means a fault-free run is bit-identical to the seed behaviour. *)

val create : ?obs:Obs.t -> Sim.t -> plan -> t
(** With [obs], every injected event emits an instant on the ["fault"]
    track and bumps ["fault.injected.<kind>"]. *)

val arm : t -> unit
(** Schedule every event of the plan on the simulation agenda: at
    [event.at] the window opens (subscribers fire, in subscription
    order); it closes [duration_ns] later. Every window additionally
    emits a terminal {e recovery} event at
    [min (at +. duration_ns) horizon_ns] — so a window that ends exactly
    at the plan horizon, or one that would outlive it (including the
    permanent [Server_failure] windows), is still reported recovered at
    the horizon and availability accounting stays conservative.
    Idempotent. *)

val subscribe : t -> kind -> (event -> unit) -> unit
(** Called from scheduler context when a window of [kind] opens. *)

val is_active : t -> kind -> bool
(** Is a window of [kind] open at the current simulated time? *)

val when_clear : t -> kind -> (unit -> unit) -> unit
(** [when_clear t kind k] calls [k] once no window of [kind] is open:
    at once, before returning, when clear; otherwise from a timed event
    at the window's end (windows opening meanwhile extend the wait).
    Safe from callbacks and processes; the events it schedules are the
    ones {!block_until_clear}'s sleeps take. *)

val block_until_clear : t -> kind -> unit
(** From a process: if a window of [kind] is open, sleep until it
    closes — {!when_clear} awaited ({!Sim.await}). No-op when clear —
    the fault-free fast path costs one array read and no effect. *)

val injected : t -> int
(** Events whose windows have opened so far. *)

val recovered : t -> int
(** Windows reported recovered so far (natural close or terminal
    recovery at the plan horizon). At or past the horizon,
    [recovered = injected]: no window is ever left unaccounted. *)

val summary : t -> string
(** One line of recovered/injected accounting, total and per kind —
    the fault summary the game-day scorecard embeds. *)

(** {2 Guarded operations}

    Bounded retry with exponential backoff, and a circuit breaker, over
    simulated fallible operations. An attempt runs to its own end: the
    guard sets no per-attempt deadline (a caller that needs one races
    its own timer, as {!Bm_workload.Rpc}'s retransmission timeout does). *)

module Guard : sig
  type policy = {
    max_attempts : int;  (** total tries per {!run} (≥ 1) *)
    backoff_ns : float;  (** sleep before the first retry *)
    backoff_mult : float;  (** exponential growth per retry *)
    backoff_max_ns : float;
        (** backoff ceiling — caps every sleep of the schedule,
            including the first one when [backoff_ns] exceeds it *)
    circuit_threshold : int;
        (** consecutive exhausted {!run}s that open the circuit;
            [0] disables the breaker *)
    circuit_cooldown_ns : float;  (** open-state duration *)
  }

  val default_policy : policy
  (** 4 attempts, 500 ns backoff doubling to 8 µs cap, breaker off. *)

  type g

  val create : ?obs:Obs.t -> ?policy:policy -> Sim.t -> name:string -> g
  (** With [obs], retries, breaker openings and rejections count under
      ["fault.guard.<name>."]. *)

  val run : g -> (unit -> ('a, string) result) -> ('a, string) result
  (** Run the operation under the policy, from process context. Failed
      attempts back off exponentially; after [max_attempts] failures the
      error is returned and (once [circuit_threshold] consecutive runs
      have failed) the circuit opens, rejecting immediately until the
      cooldown elapses. A success on the first attempt performs no
      simulation operations at all, so guarding a healthy path leaves
      its timing untouched. A retried operation runs again from the
      start, so guarded operations must be idempotent (register writes
      of absolute values, exactly-once completion publication). *)

  val run_callback :
    g -> ((('a, string) result -> unit) -> unit) -> (('a, string) result -> unit) -> unit
  (** [run_callback g op k] is {!run} for a callback chain: [op] is
      itself a chain that passes each attempt's outcome to its
      continuation, and [k] gets the run's result. Breaker, retry
      counters and the backoff schedule are {!run}'s own; each backoff
      sleep is one timed event, the one {!run}'s sleep takes, and a
      success on the first attempt schedules nothing. *)

  val retries : g -> int
  val circuit_opens : g -> int

  type state =
    | Closed  (** normal operation: runs go through *)
    | Open  (** breaker tripped, cooldown pending: runs are rejected *)
    | Half_open
        (** cooldown elapsed after a trip: the next run probes; a
            success closes the breaker, an exhausted run re-opens it *)

  val state : g -> state
  (** The breaker's tri-state, so policies and tests can observe it
      directly instead of inferring it from retry counts. [Half_open]
      requires the breaker to be enabled ([circuit_threshold > 0]). *)
end
