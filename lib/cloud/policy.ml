(* Closed-loop degradation policies. Each policy is a pure decision
   function over a per-window signal bundle plus a small mutable state
   (stage, calm/hold counters, shed set). The split into decide/confirm
   is what makes the hysteresis contract structural: decide proposes at
   most one stage move per call and records it as pending; the runner
   executes the actions (escalations under its Fault.Guard) and then
   confirms with the outcome. A failed guard run discards the pending
   move, so the stage can never change more than once per SLO window
   and never changes at all when the control plane refuses the work. *)

type kind = Ladder | Selective | Tiered | Congestion

let all = [ Ladder; Selective; Tiered; Congestion ]

let name = function
  | Ladder -> "ladder"
  | Selective -> "selective"
  | Tiered -> "tiered"
  | Congestion -> "congestion"

let of_name = function
  | "ladder" -> Some Ladder
  | "selective" -> Some Selective
  | "tiered" -> Some Tiered
  | "congestion" -> Some Congestion
  | _ -> None

type signals = {
  window : int;
  premium_pressure : float;
  all_pressure : float;
  distressed : (string * Slo.tier) list;
  suspects : string list;
  gold_p99_ms : float;
  offered_pps : (Slo.tier * float) list;
  failed_hosts : int list;
  spine_queued : int;
  spine_dropped : int;
  links : Bm_fabric.Fabric.pressure list;
  links_down : int;
  brownout : bool;
  breaker : Bm_engine.Fault.Guard.state;
}

type action =
  | Shed_tier of Slo.tier
  | Restore_tier of Slo.tier
  | Shed_tenants of string list
  | Restore_tenants of string list
  | Tier_ceiling of { tier : Slo.tier; pps : float }
  | Restore_tier_ceiling of Slo.tier
  | Host_ceiling of float
  | Restore_host_ceiling
  | Class_ceiling of { tier : Slo.tier; frac : float }
  | Restore_class_ceiling of Slo.tier
  | Drain_failed
  | Throttle_bulk of float
  | Restore_bulk

type decision = Hold | Escalate of action list | Reapply of action list | Relax of action list

type t = {
  kind : kind;
  mutable stage : int;
  mutable max_stage : int;
  mutable calm : int;  (* consecutive calm windows *)
  mutable held : int;  (* windows since the last committed stage change *)
  mutable shed : string list;  (* tenants currently shed (committed) *)
  mutable pending : int;  (* proposed stage delta this window: -1/0/+1 *)
  mutable pending_shed : string list;
  mutable pending_restore : bool;  (* committing clears the shed set *)
  mutable last_dropped : int;  (* spine drop counter at the previous decide *)
}

(* Hysteresis: escalation and relaxation use distinct thresholds (a
   dead band between them accumulates no calm), and the newer policies
   additionally hold each stage for [min_hold] windows before moving
   again. The ladder keeps the legacy parameters exactly: raise at
   0.05, relax after 2 calm windows, no hold. *)
let raise_thr = 0.05
let relax_thr = 0.02
let min_hold = function Ladder -> 0 | Selective | Tiered | Congestion -> 2
let calm_windows = 2
let top_stage = 3

let create kind =
  {
    kind;
    stage = 0;
    max_stage = 0;
    calm = 0;
    held = min_hold kind;
    shed = [];
    pending = 0;
    pending_shed = [];
    pending_restore = false;
    last_dropped = 0;
  }

let stage t = t.stage
let max_stage t = t.max_stage
let shed_tenants t = t.shed

let escalate t actions =
  t.pending <- 1;
  Escalate actions

let relax t actions =
  t.pending <- -1;
  Relax actions

let fresh_suspects t s = List.filter (fun tn -> not (List.mem tn t.shed)) s.suspects

(* The legacy three-rung ladder, ported move for move: Bronze onto a
   tight Shed bucket, then the global host ceiling, then drain failed
   hosts; keep draining newly failed hosts once fully escalated. *)
let decide_ladder t s =
  let distress = s.premium_pressure >= raise_thr || s.failed_hosts <> [] in
  if distress then begin
    t.calm <- 0;
    if t.stage < top_stage then
      escalate t
        (match t.stage + 1 with
        | 1 -> [ Shed_tier Slo.Bronze ]
        | 2 -> [ Host_ceiling 0.88 ]
        | _ -> [ Drain_failed ])
    else if s.failed_hosts <> [] then Reapply [ Drain_failed ]
    else Hold
  end
  else begin
    t.calm <- t.calm + 1;
    if t.calm >= calm_windows && t.stage > 0 then
      relax t
        (match t.stage with
        | 1 -> [ Restore_tier Slo.Bronze ]
        | 2 -> [ Restore_host_ceiling ]
        | _ -> [])
    else Hold
  end

let decide_selective t s =
  let distress = s.premium_pressure >= raise_thr || s.failed_hosts <> [] in
  if distress then begin
    t.calm <- 0;
    if t.stage < top_stage && t.held >= min_hold t.kind then begin
      match t.stage + 1 with
      | 1 -> escalate t [ Drain_failed ]
      | 2 ->
        let fresh = fresh_suspects t s in
        t.pending_shed <- fresh;
        escalate t [ Shed_tenants fresh ]
      | _ -> escalate t [ Host_ceiling 0.88 ]
    end
    else if s.failed_hosts <> [] && t.stage >= 1 then Reapply [ Drain_failed ]
    else begin
      let fresh = fresh_suspects t s in
      if t.stage >= 2 && fresh <> [] then begin
        t.pending_shed <- fresh;
        Reapply [ Shed_tenants fresh ]
      end
      else Hold
    end
  end
  else begin
    if s.premium_pressure < relax_thr then t.calm <- t.calm + 1 else t.calm <- 0;
    if t.calm >= calm_windows && t.stage > 0 && t.held >= min_hold t.kind then begin
      match t.stage with
      | 3 -> relax t [ Restore_host_ceiling ]
      | 2 ->
        t.pending_restore <- true;
        relax t [ Restore_tenants t.shed ]
      | _ -> relax t []
    end
    else Hold
  end

(* Per-tier ceilings are fractions of the tier's offered rate in the
   window that triggered the move, so the same policy bites equally at
   quick and full fleet scale instead of hardcoding an absolute pps. *)
let tier_cap s tier frac =
  let offered = match List.assoc_opt tier s.offered_pps with Some r -> r | None -> 0.0 in
  Tier_ceiling { tier; pps = Float.max 1.0 (frac *. offered) }

let decide_tiered t s =
  let distress = s.premium_pressure >= raise_thr || s.failed_hosts <> [] in
  if distress then begin
    t.calm <- 0;
    if t.stage < top_stage && t.held >= min_hold t.kind then
      escalate t
        (match t.stage + 1 with
        | 1 ->
          [ tier_cap s Slo.Bronze 0.60; Class_ceiling { tier = Slo.Bronze; frac = 0.30 } ]
        | 2 -> [ Drain_failed ]
        | _ ->
          [
            tier_cap s Slo.Bronze 0.35;
            tier_cap s Slo.Silver 0.85;
            Class_ceiling { tier = Slo.Bronze; frac = 0.22 };
          ])
    else if s.failed_hosts <> [] && t.stage >= 2 then Reapply [ Drain_failed ]
    else Hold
  end
  else begin
    if s.premium_pressure < relax_thr then t.calm <- t.calm + 1 else t.calm <- 0;
    if t.calm >= calm_windows && t.stage > 0 && t.held >= min_hold t.kind then
      relax t
        (match t.stage with
        | 3 ->
          [
            tier_cap s Slo.Bronze 0.60;
            Restore_tier_ceiling Slo.Silver;
            Class_ceiling { tier = Slo.Bronze; frac = 0.30 };
          ]
        | 2 -> []
        | _ -> [ Restore_tier_ceiling Slo.Bronze; Restore_class_ceiling Slo.Bronze ])
    else Hold
  end

let decide_congestion t s =
  let drop_delta = s.spine_dropped - t.last_dropped in
  t.last_dropped <- s.spine_dropped;
  let congested = s.spine_queued >= 8 || drop_delta > 0 || s.gold_p99_ms > 0.25 in
  let distress = congested || s.failed_hosts <> [] || s.premium_pressure >= raise_thr in
  (* A drain is itself a fabric event: every evacuated guest streams its
     memory post-copy across the spine, and a drain launched into a
     saturated fabric trades the failed hosts' outage for a longer
     whole-fleet one. So the drain is the LAST rung, and it only fires
     when the spine has headroom for the storm. *)
  let headroom = s.spine_queued < 8 && drop_delta = 0 in
  if distress then begin
    t.calm <- 0;
    let next_rung =
      match t.stage + 1 with
      | 1 -> Some [ Throttle_bulk 0.0; Shed_tier Slo.Bronze ]
      | 2 -> Some [ Class_ceiling { tier = Slo.Bronze; frac = 0.25 } ]
      | _ -> if headroom && s.failed_hosts <> [] then Some [ Drain_failed ] else None
    in
    match next_rung with
    | Some actions when t.stage < top_stage && t.held >= min_hold t.kind ->
      escalate t actions
    | _ ->
      if s.failed_hosts <> [] && t.stage >= 3 && headroom then Reapply [ Drain_failed ]
      else Hold
  end
  else begin
    if s.premium_pressure < relax_thr then t.calm <- t.calm + 1 else t.calm <- 0;
    if t.calm >= calm_windows && t.stage > 0 && t.held >= min_hold t.kind then
      relax t
        (match t.stage with
        | 3 -> []
        | 2 -> [ Restore_class_ceiling Slo.Bronze ]
        | _ -> [ Restore_tier Slo.Bronze; Restore_bulk ])
    else Hold
  end

let decide t s =
  t.held <- t.held + 1;
  t.pending <- 0;
  t.pending_shed <- [];
  t.pending_restore <- false;
  match t.kind with
  | Ladder -> decide_ladder t s
  | Selective -> decide_selective t s
  | Tiered -> decide_tiered t s
  | Congestion -> decide_congestion t s

let confirm t ~ok =
  if ok then begin
    if t.pending_shed <> [] then t.shed <- List.sort_uniq compare (t.shed @ t.pending_shed);
    if t.pending_restore then t.shed <- [];
    if t.pending = 1 then begin
      t.stage <- t.stage + 1;
      t.max_stage <- max t.max_stage t.stage;
      t.held <- 0
    end
    else if t.pending = -1 then begin
      t.stage <- t.stage - 1;
      t.calm <- 0;
      t.held <- 0
    end
  end;
  t.pending <- 0;
  t.pending_shed <- [];
  t.pending_restore <- false

(* Which tenants share fate with the distressed premium tenants: every
   Bronze tenant with a guest on a seed host (a failed host, or any
   host of a distressed Gold/Silver tenant) or in a seed rack (same
   ToR). This is the shed set of the selective policy — colocated
   best-effort load, rather than the whole Bronze tier. *)
let blast_radius ~sched ~tor_of ~tier_of ~distressed ~failed_hosts =
  let premium_hosts =
    List.concat_map
      (fun (tn, tier) ->
        if tier = Slo.Bronze then [] else Scheduler.hosts_of_tenant sched ~tenant:tn)
      distressed
  in
  let seed_hosts = List.sort_uniq compare (failed_hosts @ premium_hosts) in
  let seed_racks = List.sort_uniq compare (List.map tor_of seed_hosts) in
  let colocated srv = List.mem srv seed_hosts || List.mem (tor_of srv) seed_racks in
  Scheduler.occupancy sched
  |> List.concat_map (fun (srv, n) ->
         if n > 0 && colocated srv then Scheduler.tenants_on_host sched ~server:srv else [])
  |> List.sort_uniq compare
  |> List.filter (fun tn -> tier_of tn = Slo.Bronze)
