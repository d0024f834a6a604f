(** Game-day scenario engine: composed fault timelines over a live
    fleet, graceful degradation, and per-tenant SLO scorecards.

    Production game days rehearse the bad afternoon: traffic ramps
    toward the diurnal peak while hosts die, a spine link goes dark,
    background load congests the fabric, and the control plane browns
    out exactly when the operators need it. This module scripts that
    afternoon as a {e seeded, deterministic timeline} over one
    {!Bm_hyp.Fleet.Live} run and scores every tenant against its
    declared SLO ({!Bm_cloud.Slo}).

    A {!timeline} is built from the {!at} / {!every} / {!ramp}
    combinators (or parsed from the [--scenario SEED:SPEC] command-line
    form, {!parse_spec}). The runner compiles fault actions into a
    {!Bm_engine.Fault} plan — host failures become [Server_failure]
    windows, fabric-link failures become [Fabric_link_down] windows
    mapped onto real {!Bm_fabric.Fabric} spine links, control-plane
    brownouts become [Pmd_crash] windows — so fault bookkeeping
    (injection counts, terminal recovery at the horizon, the fault
    summary) is shared with every other fault consumer in the tree.

    {b Degradation policies.} With [degrade:true] a monitor fiber runs
    one {!Bm_cloud.Policy} at window boundaries: it assembles a
    per-window signal bundle (SLO window pressure and misses, failed
    hosts, fabric queue pressure, brownout and breaker state — pure
    reads, never simulation operations), asks the policy to decide,
    and executes the returned actions. The default [Ladder] policy
    reproduces the legacy three-stage ladder bit-identically:

    + shed the lowest tier — Bronze tenants' traffic is pushed through a
      tight {!Bm_cloud.Limits} [Shed] token bucket;
    + tighten the global admission ceiling
      ({!Bm_cloud.Control_plane.set_admission_ceiling});
    + evacuate failed hosts ({!Bm_cloud.Scheduler.drain}, post-copy:
      placement switches instantly, memory streams over the fabric in
      the background).

    The other policies pull different levers: [Selective] sheds only
    the Bronze tenants colocated with the distressed premium tenants
    ({!Bm_cloud.Policy.blast_radius}); [Tiered] applies graduated
    per-tier admission ceilings plus a Bronze placement-class cap
    ({!Bm_cloud.Control_plane.set_class_ceiling}); [Congestion] reacts
    to spine-queue depth and Gold p99 by throttling background bulk
    flows and draining early.

    Every escalation runs under a {!Bm_engine.Fault.Guard} (retry,
    exponential backoff, circuit breaker): a control-plane brownout
    makes the stage action fail, the guard retries, and the breaker
    defers the policy to the next window rather than hammering a
    browned-out control plane — and a failed escalation discards the
    stage move entirely (decide/confirm). Calm windows walk each
    policy back down, undoing each stage in reverse, with per-policy
    hysteresis (distinct raise/relax thresholds and a minimum hold).

    Determinism: same [spec] + same fleet config + same [degrade] +
    same [policy] ⇒ byte-identical {!outcome.scorecard}. All scenario
    randomness comes from SplitMix64 streams split off the spec seed;
    observability never perturbs the run. *)

(** {2 Timeline DSL} *)

type action =
  | Traffic of float
      (** Set the open-loop traffic multiplier (diurnal scale). *)
  | Host_fail of { victim : int; duration_ns : float }
      (** Fail victim host [victim] (see {e victim resolution} below)
          for [duration_ns], then restore it. Guests stay placed on the
          dead host — and their traffic fails — until the degradation
          ladder (or a {!Evacuate} entry) drains it. *)
  | Link_fail of { victim : int; duration_ns : float }
      (** Take the [victim]-th spine link dark for [duration_ns]:
          traffic offered to it drops (ECMP does not route around). *)
  | Congest of { duration_ns : float }
      (** Cross-rack background burst trains sharing the spine for
          [duration_ns]: queueing delay first, loss second. *)
  | Evacuate of { victim : int }
      (** Planned maintenance: drain victim host [victim] now (guests
          re-place immediately, memory streams post-copy), restore the
          host and retry stranded guests shortly after. *)
  | Brownout of { duration_ns : float }
      (** Control-plane brownout: ladder stage actions fail while the
          window is open — the {!Bm_engine.Fault.Guard} machinery earns
          its keep. *)
  | Vf_stall of { duration_ns : float }
      (** SR-IOV virtual functions stop draining for [duration_ns]
          (compiled to {!Bm_engine.Fault.Vf_stall}): VF-backed guests
          see their queue pairs freeze, then pick up where they left
          off. *)
  | Vf_wedge of { duration_ns : float }
      (** The device's VF-reassignment doorbell wedges for
          [duration_ns] (compiled to
          {!Bm_engine.Fault.Vf_reassign_timeout}): hot-reassignments
          attempted inside the window retry under the
          {!Bm_engine.Fault.Guard} and stretch their blackout. *)

type entry = { at : float; action : action }

type timeline = entry list

val at : float -> action -> timeline
(** A single entry at absolute simulated time [at] (ns). *)

val ramp : from_ns:float -> until_ns:float -> lo:float -> hi:float -> unit -> timeline
(** A diurnal traffic ramp: eight {!Traffic} entries
    tracing a half-sine from [lo] up to [hi] and back down over
    [\[from_ns, until_ns)]. *)

(** {2 Scenario specs} *)

type spec = {
  seed : int;
  horizon_ns : float;
  timeline : entry list;  (** sorted by time, ties in submission order *)
}

val make : seed:int -> ?horizon_ns:float -> timeline -> spec
(** Sort the timeline (stable) and validate every entry lies within
    [\[0, horizon_ns)]. Raises [Invalid_argument] otherwise. *)

val default_spec : ?horizon_ns:float -> seed:int -> unit -> spec
(** The committed game day: a 0.6→1.5 diurnal ramp, two host failures
    (victims 0 and 1) at 22%% and 26%% of the horizon lasting over half
    of it, one spine-link failure, one congestion episode, one
    control-plane brownout overlapping the ladder's first escalation,
    and one planned maintenance evacuation (victim 2) at 80%%. *)

val parse_spec : string -> (spec, string) result
(** Parse a ["<seed>:<spec>"] command-line scenario, where <spec> is a
    comma-separated list of tokens:

    - [default] — the {!default_spec} timeline;
    - [hosts=<n>] / [links=<n>] / [congest=<n>] / [evac=<n>] /
      [brownout=<n>] / [vfstall=<n>] / [vfwedge=<n>] — [n] events of
      that kind at seeded times;
    - [ramp=<lo>-<hi>] — a diurnal ramp between the two multipliers;
    - [horizon=<ns>] — override the horizon (finite, > 0).

    Event times are drawn per kind from SplitMix64 streams split off
    the seed, so adding events of one kind never moves another kind's
    times. A bad token, or a horizon too small to hold its own events,
    is an [Error], never an exception. Examples: ["42:default"],
    ["7:hosts=2,links=1,congest=1,ramp=0.5-2.0"]. *)

val render : spec -> string
(** One line per entry (plus a header) — committed by the determinism
    tests and the CI smoke. *)

(** {2 Running} *)

type outcome = {
  degrade : bool;
  policy : string;  (** {!Bm_cloud.Policy.name} of the policy that ran *)
  scores : Bm_cloud.Slo.tenant_score list;
  met : int;  (** tenants meeting their SLO *)
  missed : int;
  delivered : int;  (** requests delivered fleet-wide *)
  failed : int;
  shed : int;
  max_stage : int;  (** highest policy stage reached (0 = never) *)
  stage_actions : int;  (** successful guarded stage transitions *)
  guard_retries : int;
  breaker_opens : int;
  evacuated_guests : int;  (** ladder + maintenance re-placements *)
  evac_bytes : int;  (** post-copy memory streamed over the fabric *)
  sim_events : int;
      (** simulation events executed — the scenario bench's events/s
          numerator *)
  fault_summary : string;  (** {!Bm_engine.Fault.summary} of the run *)
  scorecard : string;
      (** {!Report.slo_scorecard} plus the fault and ladder summary
          lines: the byte-identical artefact the CI smoke diffs. *)
}

val run :
  ?trace:Bm_engine.Trace.t ->
  ?metrics:Bm_engine.Metrics.t ->
  ?degrade:bool ->
  ?policy:Bm_cloud.Policy.kind ->
  ?fleet:Bm_hyp.Fleet.Live.config ->
  spec ->
  outcome
(** Build a {!Bm_hyp.Fleet.Live} fleet seeded with [spec.seed]
    ([fleet] defaults to {!Bm_hyp.Fleet.Live.default_config}), declare
    every tenant's SLO (tiers round-robin Gold/Silver/Bronze), arm the
    compiled fault plan, spawn the traffic, metering and monitor
    fibers, run to quiescence and score
    [windows] rolling windows over the horizon.

    {e Victim resolution}: host victim [k] is the host of the [k]-th
    tenant's hottest guest (distinct hosts, in tenant order) — game
    days aim at the blast radius, not at random — falling back to
    seeded distinct hosts once tenants run out. Link victim [k] is the
    [k]-th ToR→spine link in a seeded shuffle.

    [degrade] (default [true]) enables the degradation policy —
    [policy] (default [Ladder]) picks which one; with [degrade:false]
    the same timeline runs open-loop, which is exactly the comparison
    the [game_day] experiment prints. *)
