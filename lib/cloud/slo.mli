(** Per-tenant service-level objectives and rolling-window scoring.

    The game-day scenario engine ({!Bmhive.Scenario}) scores every run
    against SLOs the tenants {e declare} up front: availability (the
    fraction of requests served), p99 latency, and goodput (the fraction
    of offered bytes delivered). Accounting is bucketed into fixed
    rolling windows of simulated time; a tenant's SLO is {e met} when a
    large-enough fraction of windows individually meet all three
    objectives — so a short outage costs its windows, not the whole run,
    and a long outage cannot hide behind a good average.

    Every request resolves exactly once: {!deliver}ed (with its
    latency), {!fail}ed (the service was down or the network lost it),
    or {!shed} (the degradation ladder refused it to protect higher
    tiers). Shed requests count against the shed tenant's own
    availability — refusing service is not serving — but are reported in
    their own column so a scorecard never mistakes deliberate load
    shedding for infrastructure failure.

    Pure accounting: recording draws no randomness and performs no
    simulation operations, so an instrumented run is bit-identical to an
    unobserved one. *)

type tier = Gold | Silver | Bronze

val tier_name : tier -> string

val tier_of_index : int -> tier
(** Round-robin tier assignment: [0 -> Gold], [1 -> Silver],
    [2 -> Bronze], cycling. *)

type target = {
  availability : float;  (** min delivered/resolved fraction per window *)
  p99_ms : float;  (** max per-window p99 latency, milliseconds *)
  goodput : float;  (** min delivered/offered bytes fraction per window *)
  compliant_windows : float;
      (** min fraction of scored windows that must individually meet
          all three objectives for the SLO to count as met *)
}

type t

val create : ?obs:Bm_engine.Obs.t -> now:(unit -> float) -> window_ns:float -> unit -> t
(** A tracker whose window [i] covers simulated time
    [\[i * window_ns, (i+1) * window_ns)]. With [obs], resolutions bump
    the aggregate ["cloud.slo.delivered" / ".failed" / ".shed"]
    counters (bounded cardinality — nothing per-tenant). *)

val declare : t -> tenant:string -> tier:tier -> unit -> unit
(** Declare a tenant's objectives, the tier's:
    Gold 99%% / 0.25 ms / 97%% over 3/4 of windows; Silver 97%% /
    0.5 ms / 95%% over 5/8; Bronze 90%% / 2 ms / 85%% over half. Raises
    [Invalid_argument] on a duplicate. *)

val deliver : t -> tenant:string -> bytes:int -> latency_ns:float -> unit
(** A request completed: [bytes] count as offered and delivered in the
    current window, [latency_ns] feeds the window's histogram. Unknown
    tenants raise [Invalid_argument] (scoring an undeclared tenant is a
    harness bug). *)

val fail : t -> tenant:string -> bytes:int -> unit
(** A request was lost (destination host down, burst dropped in the
    fabric): [bytes] count as offered, none as delivered. *)

val shed : t -> tenant:string -> bytes:int -> unit
(** The degradation ladder refused the request: counted like a failure
    for the tenant's own availability, reported in its own column. *)

type tenant_score = {
  tenant : string;
  tier : tier;
  target : target;
  offered : int;  (** requests resolved (delivered + failed + shed) *)
  delivered : int;
  failed : int;
  shed_count : int;
  offered_bytes : float;
  delivered_bytes : float;
  availability : float;  (** aggregate over the whole run *)
  p99_ms : float;  (** aggregate over the whole run *)
  goodput : float;
  windows : int;  (** windows scored (horizon / window_ns) *)
  ok_windows : int;  (** windows individually meeting all objectives *)
  met : bool;  (** ok_windows / windows >= target.compliant_windows *)
}

val scores : t -> until_ns:float -> tenant_score list
(** One score per declared tenant, sorted by name, over windows
    [\[0, ceil (until_ns / window_ns))]. Windows in which a tenant had
    no traffic count as compliant (no demand, no violation). *)

val window_pressure : t -> ?tiers:tier list -> window:int -> unit -> float
(** The degradation policies' control signal: the fraction of declared
    tenants whose window [window] resolved at least one request and
    missed at least one objective. 0 when nothing was resolved. With
    [tiers], only tenants of those tiers are counted — a policy
    listens to the tiers it is protecting, so deliberately shedding
    Bronze does not read back as sustained distress. Tenants with no
    resolved traffic in the window (traffic gap, fully shed upstream)
    are excluded from the denominator entirely: an idle tenant is not
    "meeting" an SLO it was never offered, and must not dilute the
    pressure the active tenants report. *)

val window_misses : t -> window:int -> unit -> (string * tier) list
(** The tenants behind the pressure: every tenant that resolved at
    least one request in window [window] and missed at least one
    objective, sorted by name. Same empty-window exclusion as
    {!window_pressure} — policies use this to aim a blast radius
    instead of shedding a whole tier. *)

val window_tier_p99 : t -> tier:tier -> window:int -> float
(** The worst per-tenant p99 latency (ms) of [tier] in window [window]
    — the gold-latency distress signal a congestion-aware policy
    compares against the tier's [p99_ms] target. 0 when no tenant of
    the tier recorded a latency sample in the window (the maximum is
    taken per tenant, not over a merged histogram, so one slow tenant
    is not averaged away by many fast ones). *)

val row_header : string list

val row : tenant_score -> string list
(** [tenant; tier; offered; ok; shed; avail; p99 ms; goodput; windows;
    slo] — shaped for {!Bmhive.Report.slo_scorecard}. *)
