(* Tests for the pluggable degradation-policy engine: registry
   round-trips, the legacy ladder's rung order, the decide/confirm
   hysteresis contract (at most one stage move per window, guard
   failures discard the pending move, calm tails always walk the stage
   back to zero — as QCheck properties over seeded signal storms),
   blast-radius computation over a real scheduler, the empty-window
   exclusion in SLO window pressure, and the guard backoff cap and
   breaker tri-state the policies observe. *)

open Bm_engine
module Policy = Bm_cloud.Policy
module Slo = Bm_cloud.Slo
module Cp = Bm_cloud.Control_plane
module Scheduler = Bm_cloud.Scheduler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry () =
  check_int "four policies" 4 (List.length Policy.all);
  check_string "fixed order" "ladder,selective,tiered,congestion"
    (String.concat "," (List.map Policy.name Policy.all));
  List.iter
    (fun k ->
      check_bool (Policy.name k ^ " round-trips") true (Policy.of_name (Policy.name k) = Some k))
    Policy.all;
  check_bool "unknown name rejected" true (Policy.of_name "panic" = None)

(* ------------------------------------------------------------------ *)
(* Ladder rungs and the guard-failure discard *)

(* An all-quiet bundle (zero pressure, nothing failed, breaker closed):
   the baseline the tests and the property generators perturb. *)
let calm_signals ~window =
  {
    Policy.window;
    premium_pressure = 0.0;
    all_pressure = 0.0;
    distressed = [];
    suspects = [];
    gold_p99_ms = 0.0;
    offered_pps = [];
    failed_hosts = [];
    spine_queued = 0;
    spine_dropped = 0;
    links = [];
    links_down = 0;
    brownout = false;
    breaker = Fault.Guard.Closed;
  }

let hot ~window = { (calm_signals ~window) with Policy.premium_pressure = 0.5; failed_hosts = [ 0 ] }

(* The ladder's rung actions, for a readable mismatch. *)
let show_action = function
  | Policy.Shed_tier t -> "shed_tier(" ^ Slo.tier_name t ^ ")"
  | Host_ceiling f -> Printf.sprintf "host_ceiling(%.2f)" f
  | Drain_failed -> "drain_failed"
  | _ -> "another action"

let test_ladder_rungs () =
  let p = Policy.create Policy.Ladder in
  let expect_escalate w actions =
    (match Policy.decide p (hot ~window:w) with
    | Policy.Escalate got ->
      check_string
        (Printf.sprintf "rung %d actions" (Policy.stage p + 1))
        (String.concat ";" (List.map show_action actions))
        (String.concat ";" (List.map show_action got))
    | _ -> Alcotest.fail "expected Escalate under distress");
    Policy.confirm p ~ok:true
  in
  expect_escalate 0 [ Policy.Shed_tier Slo.Bronze ];
  expect_escalate 1 [ Policy.Host_ceiling 0.88 ];
  expect_escalate 2 [ Policy.Drain_failed ];
  check_int "fully escalated" 3 (Policy.stage p);
  (* At top stage the ladder keeps draining newly failed hosts without
     moving the stage. *)
  (match Policy.decide p (hot ~window:3) with
  | Policy.Reapply [ Policy.Drain_failed ] -> Policy.confirm p ~ok:true
  | _ -> Alcotest.fail "expected Reapply [Drain_failed] at top stage");
  check_int "reapply holds the stage" 3 (Policy.stage p);
  check_int "max stage recorded" 3 (Policy.max_stage p)

let test_guard_failure_discards () =
  List.iter
    (fun kind ->
      let p = Policy.create kind in
      (* A brownout makes the runner's guard give up: confirm ~ok:false
         must discard the pending escalation entirely. *)
      (match Policy.decide p (hot ~window:0) with
      | Policy.Escalate _ -> Policy.confirm p ~ok:false
      | _ -> Alcotest.fail (Policy.name kind ^ ": expected Escalate under distress"));
      check_int (Policy.name kind ^ ": stage unchanged after guard failure") 0 (Policy.stage p);
      check_int (Policy.name kind ^ ": nothing recorded") 0 (Policy.max_stage p);
      (* The same window's distress re-proposes next window. *)
      (match Policy.decide p (hot ~window:1) with
      | Policy.Escalate _ -> Policy.confirm p ~ok:true
      | _ -> Alcotest.fail (Policy.name kind ^ ": expected retry after discard"));
      check_int (Policy.name kind ^ ": commits once the guard succeeds") 1 (Policy.stage p))
    Policy.all

(* ------------------------------------------------------------------ *)
(* Hysteresis properties (QCheck) *)

(* Decode one generated window: a signal bundle plus whether the
   guarded actions "ran". Storm codes sweep pressure, failed hosts,
   spine queues and gold p99 through and past every threshold. *)
let storm_signals ~window code =
  let base = calm_signals ~window in
  {
    base with
    Policy.premium_pressure = float_of_int (code mod 5) *. 0.04;
    all_pressure = float_of_int (code mod 7) *. 0.05;
    failed_hosts = (if code mod 3 = 0 then [ code mod 11 ] else []);
    suspects = (if code mod 4 = 0 then [ Printf.sprintf "t%02d" (code mod 8) ] else []);
    spine_queued = code mod 13;
    spine_dropped = code * 3 mod 29;
    gold_p99_ms = float_of_int (code mod 4) *. 0.11;
    offered_pps = [ (Slo.Gold, 1e4); (Slo.Silver, 2e4); (Slo.Bronze, 3e4) ];
  }

let prop_one_stage_move_per_window =
  QCheck.Test.make ~name:"at most one stage move per window, stage within bounds" ~count:200
    QCheck.(pair (int_range 0 3) (small_list (pair (int_range 0 100) bool)))
    (fun (kind_ix, windows) ->
      let p = Policy.create (List.nth Policy.all kind_ix) in
      List.for_all
        (fun (i, (code, ok)) ->
          let before = Policy.stage p in
          (match Policy.decide p (storm_signals ~window:i code) with
          | Policy.Hold | Policy.Relax _ -> Policy.confirm p ~ok:true
          | Policy.Escalate _ | Policy.Reapply _ -> Policy.confirm p ~ok)
          ;
          let after = Policy.stage p in
          abs (after - before) <= 1 && after >= 0 && after <= 3)
        (List.mapi (fun i w -> (i, w)) windows))

let prop_calm_tail_relaxes_to_zero =
  QCheck.Test.make ~name:"a calm tail walks every policy back to stage 0" ~count:100
    QCheck.(pair (int_range 0 3) (small_list (int_range 0 100)))
    (fun (kind_ix, storm) ->
      let p = Policy.create (List.nth Policy.all kind_ix) in
      List.iteri
        (fun i code ->
          match Policy.decide p (storm_signals ~window:i code) with
          | Policy.Hold | Policy.Relax _ -> Policy.confirm p ~ok:true
          | Policy.Escalate _ | Policy.Reapply _ -> Policy.confirm p ~ok:(code mod 2 = 0))
        storm;
      (* Worst case per relax step: min_hold (2) + calm_windows (2)
         windows; 3 stages + slack. *)
      for i = 0 to 23 do
        match Policy.decide p (calm_signals ~window:(List.length storm + i)) with
        | Policy.Hold | Policy.Relax _ -> Policy.confirm p ~ok:true
        | Policy.Escalate _ | Policy.Reapply _ ->
          QCheck.Test.fail_report "escalated on calm signals"
      done;
      Policy.stage p = 0 && Policy.shed_tenants p = [])

(* ------------------------------------------------------------------ *)
(* Blast radius over a real scheduler *)

let test_blast_radius () =
  let cp = Cp.create () in
  for _ = 1 to 3 do
    ignore (Cp.add_server cp (Cp.Vm_server { sellable_threads = 8 }))
  done;
  let sched = Scheduler.create cp in
  List.iter
    (fun tn -> Scheduler.register_tenant sched (Bm_cloud.Tenant.create ~name:tn { Bm_cloud.Tenant.max_guests = max_int; max_vcpus = max_int }))
    [ "g0"; "b0"; "b1"; "b2" ];
  let place name tenant vcpus =
    match Scheduler.place sched (Scheduler.request ~name ~tenant ~vcpus ()) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  (* g0+b0 share host 0; b1 fills host 1; b2 lands on host 2. *)
  place "g0-0" "g0" 6;
  place "b0-0" "b0" 2;
  place "b1-0" "b1" 6;
  place "b2-0" "b2" 6;
  let tier_of tn = if tn = "g0" then Slo.Gold else Slo.Bronze in
  let radius ~tor_of ~distressed ~failed_hosts =
    Policy.blast_radius ~sched ~tor_of ~tier_of ~distressed ~failed_hosts
  in
  check_string "colocated bronze only" "b0"
    (String.concat ","
       (radius ~tor_of:(fun h -> h) ~distressed:[ ("g0", Slo.Gold) ] ~failed_hosts:[]));
  check_string "failed host seeds its bronze" "b0,b2"
    (String.concat ","
       (radius ~tor_of:(fun h -> h) ~distressed:[ ("g0", Slo.Gold) ] ~failed_hosts:[ 2 ]));
  check_string "rack fate-sharing pulls in the neighbour" "b0,b1"
    (String.concat ","
       (radius ~tor_of:(fun h -> h / 2) ~distressed:[ ("g0", Slo.Gold) ] ~failed_hosts:[]));
  check_string "distressed bronze seeds nothing" ""
    (String.concat ","
       (radius ~tor_of:(fun h -> h) ~distressed:[ ("b1", Slo.Bronze) ] ~failed_hosts:[]))

(* ------------------------------------------------------------------ *)
(* Window pressure: the empty-window exclusion *)

let test_window_pressure_empty_window () =
  let clock = ref 0.0 in
  let slo = Slo.create ~now:(fun () -> !clock) ~window_ns:100.0 () in
  List.iter (fun tn -> Slo.declare slo ~tenant:tn ~tier:Slo.Gold ()) [ "a"; "b"; "c" ];
  (* Window 0: only "a" resolves traffic, and it fails. Idle tenants
     must not dilute the denominator: pressure is 1/1, not 1/3. *)
  Slo.fail slo ~tenant:"a" ~bytes:100;
  Alcotest.(check (float 1e-9))
    "idle tenants excluded from the denominator" 1.0
    (Slo.window_pressure slo ~window:0 ());
  (* Window 1: nothing resolved anywhere — zero pressure, not NaN. *)
  Alcotest.(check (float 1e-9))
    "fully empty window reads zero" 0.0
    (Slo.window_pressure slo ~window:1 ());
  check_int "no misses in an empty window" 0
    (List.length (Slo.window_misses slo ~window:1 ()));
  (* Window 2: one ok, one missing — half the active tenants. *)
  clock := 250.0;
  Slo.deliver slo ~tenant:"b" ~bytes:100 ~latency_ns:10.0;
  Slo.fail slo ~tenant:"a" ~bytes:100;
  Alcotest.(check (float 1e-9))
    "only active tenants counted" 0.5
    (Slo.window_pressure slo ~window:2 ())

(* ------------------------------------------------------------------ *)
(* Guard backoff cap and breaker tri-state *)

let test_guard_backoff_cap () =
  let sim = Sim.create () in
  let policy =
    {
      Fault.Guard.default_policy with
      Fault.Guard.max_attempts = 3;
      backoff_ns = 1e6;
      backoff_mult = 4.0;
      backoff_max_ns = 1_000.0;
      circuit_threshold = 0;
    }
  in
  let g = Fault.Guard.create ~policy sim ~name:"cap" in
  let elapsed = ref nan in
  Sim.spawn sim (fun () ->
      let t0 = Sim.clock () in
      (match Fault.Guard.run g (fun () -> Error "always") with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "operation cannot succeed");
      elapsed := Sim.clock () -. t0);
  Sim.run sim;
  (* Both sleeps of the schedule (1 ms, then 4 ms) clamp to the 1 µs
     cap — including the first one. *)
  Alcotest.(check (float 1e-9)) "every backoff clamped to the cap" 2_000.0 !elapsed;
  check_int "two retries" 2 (Fault.Guard.retries g)

let test_guard_breaker_states () =
  let sim = Sim.create () in
  let policy =
    {
      Fault.Guard.default_policy with
      Fault.Guard.max_attempts = 1;
      circuit_threshold = 2;
      circuit_cooldown_ns = 500.0;
    }
  in
  let g = Fault.Guard.create ~policy sim ~name:"states" in
  let states = ref [] in
  let name = function
    | Fault.Guard.Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half_open"
  in
  let note () = states := name (Fault.Guard.state g) :: !states in
  Sim.spawn sim (fun () ->
      note ();
      ignore (Fault.Guard.run g (fun () -> Error "down"));
      note ();
      ignore (Fault.Guard.run g (fun () -> Error "down"));
      note ();
      Sim.delay 600.0;
      note ();
      (match Fault.Guard.run g (fun () -> Ok ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("probe should pass: " ^ e));
      note ());
  Sim.run sim;
  check_string "closed -> open -> half_open -> closed"
    "closed,closed,open,half_open,closed"
    (String.concat "," (List.rev !states));
  check_int "one trip recorded" 1 (Fault.Guard.circuit_opens g)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "policy.engine",
      [
        Alcotest.test_case "registry round-trips" `Quick test_registry;
        Alcotest.test_case "legacy ladder rungs" `Quick test_ladder_rungs;
        Alcotest.test_case "guard failure discards pending" `Quick test_guard_failure_discards;
        Alcotest.test_case "blast radius" `Quick test_blast_radius;
        Alcotest.test_case "window pressure empty-window exclusion" `Quick
          test_window_pressure_empty_window;
      ] );
    ( "policy.hysteresis.prop",
      List.map QCheck_alcotest.to_alcotest
        [ prop_one_stage_move_per_window; prop_calm_tail_relaxes_to_zero ] );
    ( "policy.guard",
      [
        Alcotest.test_case "backoff cap" `Quick test_guard_backoff_cap;
        Alcotest.test_case "breaker tri-state" `Quick test_guard_breaker_states;
      ] );
  ]
