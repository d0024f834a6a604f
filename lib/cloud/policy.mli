(** Pluggable closed-loop degradation policies.

    A policy replaces the hardcoded game-day ladder: once per SLO
    window the scenario runner assembles a {!signals} bundle (SLO
    window pressure, failed hosts, fabric queue pressure, brownout and
    breaker state), asks the policy to {!decide}, executes the returned
    {!action}s — escalations under the scenario's {!Bm_engine.Fault.Guard},
    so a browned-out control plane refuses them — and reports the
    outcome back via {!confirm}.

    The decide/confirm split is the hysteresis contract: a decision
    proposes at most one stage move, the move commits only when the
    actions actually ran, and every policy pairs a raise threshold
    with a strictly lower relax threshold plus a calm-window count (and,
    for the non-legacy policies, a minimum hold time per stage) — so the
    stage changes by at most one per window and cannot flap inside the
    dead band. The [ladder] policy reproduces the legacy ladder
    bit-identically; [selective], [tiered] and [congestion] trade
    blast radius differently. *)

type kind =
  | Ladder  (** legacy: shed Bronze tier → global host ceiling → drain failed *)
  | Selective
      (** drain first, then shed only Bronze tenants colocated with the
          distressed premium tenants ({!blast_radius}), then the ceiling *)
  | Tiered
      (** graduated per-tier admission ceilings (Bronze first, Silver
          as the last resort) plus a Bronze placement-class cap, with
          the drain between the two *)
  | Congestion
      (** spine-queue / gold-p99 aware: silence bulk background flows
          and the Bronze tier first, stop placing Bronze into the hot
          zone, and defer the drain until the spine has headroom — a
          drain streams every evacuated guest's memory post-copy, and
          launching that storm into a saturated fabric trades the
          failed hosts' outage for a longer whole-fleet one *)

val all : kind list
(** In the fixed registry order: ladder, selective, tiered, congestion. *)

val name : kind -> string
val of_name : string -> kind option

type signals = {
  window : int;  (** SLO window index just closed *)
  premium_pressure : float;  (** {!Slo.window_pressure} over Gold+Silver *)
  all_pressure : float;  (** {!Slo.window_pressure} over every tier *)
  distressed : (string * Slo.tier) list;  (** {!Slo.window_misses}, all tiers *)
  suspects : string list;  (** {!blast_radius} of [distressed] + failed hosts *)
  gold_p99_ms : float;  (** {!Slo.window_tier_p99} for Gold *)
  offered_pps : (Slo.tier * float) list;
      (** per-tier offered request rate over the window just closed —
          what [Tiered] sizes its relative ceilings against *)
  failed_hosts : int list;  (** failed servers still hosting guests *)
  spine_queued : int;  (** bursts queued on spine-tier links right now *)
  spine_dropped : int;  (** cumulative packets dropped on spine-tier links *)
  links : Bm_fabric.Fabric.pressure list;  (** the full per-link sample *)
  links_down : int;
  brownout : bool;  (** control plane currently browned out *)
  breaker : Bm_engine.Fault.Guard.state;  (** the scenario guard's breaker *)
}

type action =
  | Shed_tier of Slo.tier  (** move the tier onto a tight fail-fast bucket *)
  | Restore_tier of Slo.tier
  | Shed_tenants of string list  (** tight fail-fast buckets, listed tenants only *)
  | Restore_tenants of string list
  | Tier_ceiling of { tier : Slo.tier; pps : float }
      (** cap the tier's admission at [pps] ({!Limits.ceiling_net}) *)
  | Restore_tier_ceiling of Slo.tier
  | Host_ceiling of float  (** scale the global admission ceiling by this factor *)
  | Restore_host_ceiling
  | Class_ceiling of { tier : Slo.tier; frac : float }
      (** cap the tier's placement class at [frac] of fleet threads
          ({!Control_plane.set_class_ceiling}) *)
  | Restore_class_ceiling of Slo.tier
  | Drain_failed  (** evacuate every failed host that still has guests *)
  | Throttle_bulk of float  (** scale background bulk traffic by this factor *)
  | Restore_bulk

type decision =
  | Hold  (** no change this window *)
  | Escalate of action list  (** raise one stage iff the actions run (guarded) *)
  | Reapply of action list
      (** re-run the current stage's work — e.g. drain a newly failed
          host at top stage — without moving the stage (guarded) *)
  | Relax of action list  (** lower one stage; undo actions run unguarded *)

type t
(** Mutable policy state: stage, calm/hold counters, the shed set. *)

val create : kind -> t

val stage : t -> int
(** Current committed stage, 0 (normal) to 3 (fully escalated). *)

val max_stage : t -> int

val shed_tenants : t -> string list
(** Tenants currently shed by [Shed_tenants] actions (sorted). *)

val decide : t -> signals -> decision
(** One call per SLO window. Proposes at most one stage move and
    records it as pending; nothing commits until {!confirm}. *)

val confirm : t -> ok:bool -> unit
(** Report whether the decision's actions ran. [ok:false] (guard gave
    up, e.g. brownout) discards the pending move — stage, counters and
    shed set stay as they were, and the policy retries from the same
    stage next window. Call with [ok:true] for [Hold] / [Relax]. *)

val blast_radius :
  sched:Scheduler.t ->
  tor_of:(int -> int) ->
  tier_of:(string -> Slo.tier) ->
  distressed:(string * Slo.tier) list ->
  failed_hosts:int list ->
  string list
(** The Bronze tenants sharing fate with the trouble: every Bronze
    tenant with a guest on a seed host (a [failed_hosts] member or any
    host of a distressed non-Bronze tenant) or in a seed rack ([tor_of]
    maps a server id to its ToR). Sorted, distinct. This is what
    [Selective] sheds instead of the whole Bronze tier. *)
