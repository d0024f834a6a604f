(* Game-day scenario engine: timeline DSL and spec parsing, SLO
   window scoring, fabric link failure windows, evacuation drop
   accounting, guard breaker recovery under seeded fault storms, and
   the end-to-end determinism / degradation-helps properties the
   game_day experiment rests on. *)

open Bm_engine
module Scenario = Bmhive.Scenario
module Slo = Bm_cloud.Slo
module Vswitch = Bm_cloud.Vswitch
module Fabric = Bm_fabric.Fabric
module Topology = Bm_fabric.Topology
module Fleet = Bm_hyp.Fleet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let cores_of sim = Bm_hw.Cores.create sim ~spec:Bm_hw.Cpu_spec.base_server_e5 ()

let mk_pkt ?(count = 1) ?(size = 1500) ~src ~dst id =
  Bm_virtio.Packet.make ~id ~src ~dst ~size ~count ~protocol:Bm_virtio.Packet.Udp ~tag:0
    ~sent_at:0.0 ()

(* ------------------------------------------------------------------ *)
(* Timeline DSL *)

let test_dsl_combinators () =
  let r = Scenario.ramp ~from_ns:0.0 ~until_ns:800.0 ~lo:0.5 ~hi:2.0 () in
  check_int "ramp steps" 8 (List.length r);
  let values =
    List.map
      (fun (e : Scenario.entry) ->
        match e.Scenario.action with
        | Scenario.Traffic m -> m
        | _ -> Alcotest.fail "ramp emits Traffic only")
      r
  in
  List.iter
    (fun m -> check_bool "ramp within [lo, hi]" true (m >= 0.5 -. 1e-9 && m <= 2.0 +. 1e-9))
    values;
  check_bool "ramp actually rises" true
    (List.fold_left max neg_infinity values > List.hd values +. 0.5)

let test_make_validates () =
  let congest = Scenario.Congest { duration_ns = 1.0 } in
  let s =
    Scenario.make ~seed:1 ~horizon_ns:1000.0
      (Scenario.at 700.0 congest @ Scenario.at 100.0 congest)
  in
  (match s.Scenario.timeline with
  | [ a; b ] ->
    check_bool "timeline sorted" true (a.Scenario.at = 100.0 && b.Scenario.at = 700.0)
  | _ -> Alcotest.fail "two entries expected");
  let rejects tl =
    match Scenario.make ~seed:1 ~horizon_ns:1000.0 tl with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "entry at horizon rejected" true (rejects (Scenario.at 1000.0 congest));
  check_bool "negative time rejected" true (rejects (Scenario.at (-1.0) congest))

let count_kind pred (s : Scenario.spec) =
  List.length (List.filter (fun (e : Scenario.entry) -> pred e.Scenario.action) s.Scenario.timeline)

let test_parse_spec () =
  (match Scenario.parse_spec "42:default" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check_int "seed" 42 s.Scenario.seed;
    check_bool "default timeline non-empty" true (s.Scenario.timeline <> []));
  (match Scenario.parse_spec "7:hosts=2,links=1,congest=1,evac=1,brownout=1,ramp=0.5-2.0" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check_int "host failures" 2
      (count_kind (function Scenario.Host_fail _ -> true | _ -> false) s);
    check_int "link failures" 1
      (count_kind (function Scenario.Link_fail _ -> true | _ -> false) s);
    check_int "congestion episodes" 1
      (count_kind (function Scenario.Congest _ -> true | _ -> false) s);
    check_int "evacuations" 1
      (count_kind (function Scenario.Evacuate _ -> true | _ -> false) s);
    check_int "brownouts" 1
      (count_kind (function Scenario.Brownout _ -> true | _ -> false) s));
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "%S rejected" bad) true
        (match Scenario.parse_spec bad with Error _ -> true | Ok _ -> false))
    [ "no-colon"; "x:hosts=2"; "7:frobs=1"; "7:ramp=banana"; "7:" ]

let test_parse_spec_streams_independent () =
  (* Per-kind seeded streams: asking for more links must not move the
     host-failure times. *)
  let host_times spec_s =
    match Scenario.parse_spec spec_s with
    | Error e -> Alcotest.fail e
    | Ok s ->
      List.filter_map
        (fun (e : Scenario.entry) ->
          match e.Scenario.action with Scenario.Host_fail _ -> Some e.Scenario.at | _ -> None)
        s.Scenario.timeline
  in
  Alcotest.(check (list (float 0.0)))
    "host times unmoved" (host_times "11:hosts=2") (host_times "11:hosts=2,links=3")

let test_render_deterministic () =
  let r spec_s =
    match Scenario.parse_spec spec_s with Error e -> Alcotest.fail e | Ok s -> Scenario.render s
  in
  check_string "render is a pure function of the spec" (r "42:default") (r "42:default");
  check_bool "seed changes the drawn times" true (r "42:hosts=2" <> r "43:hosts=2")

(* ------------------------------------------------------------------ *)
(* SLO window scoring *)

let test_slo_windows () =
  let now = ref 0.0 in
  let slo = Slo.create ~now:(fun () -> !now) ~window_ns:100.0 () in
  Slo.declare slo ~tenant:"a" ~tier:Slo.Gold ();
  (* window 0 healthy, window 1 a total outage, windows 2-3 idle *)
  for _ = 1 to 10 do
    Slo.deliver slo ~tenant:"a" ~bytes:100 ~latency_ns:1_000.0
  done;
  now := 150.0;
  for _ = 1 to 10 do
    Slo.fail slo ~tenant:"a" ~bytes:100
  done;
  match Slo.scores slo ~until_ns:400.0 with
  | [ s ] ->
    check_int "windows scored" 4 s.Slo.windows;
    check_int "idle windows compliant" 3 s.Slo.ok_windows;
    check_int "offered" 20 s.Slo.offered;
    check_int "delivered" 10 s.Slo.delivered;
    (* gold needs 3/4 compliant windows: exactly on the boundary *)
    check_bool "met at the boundary" true s.Slo.met
  | _ -> Alcotest.fail "one tenant expected"

let test_slo_p99_objective () =
  let now = ref 0.0 in
  let slo = Slo.create ~now:(fun () -> !now) ~window_ns:100.0 () in
  Slo.declare slo ~tenant:"a" ~tier:Slo.Gold ();
  (* 100% availability but 10 ms latency: gold's 0.25 ms p99 is blown *)
  for _ = 1 to 10 do
    Slo.deliver slo ~tenant:"a" ~bytes:100 ~latency_ns:1e7
  done;
  match Slo.scores slo ~until_ns:100.0 with
  | [ s ] ->
    check_int "latency alone fails the window" 0 s.Slo.ok_windows;
    check_bool "missed" false s.Slo.met
  | _ -> Alcotest.fail "one tenant expected"

let test_slo_shed_separate_column () =
  let now = ref 0.0 in
  let slo = Slo.create ~now:(fun () -> !now) ~window_ns:100.0 () in
  Slo.declare slo ~tenant:"b" ~tier:Slo.Bronze ();
  Slo.deliver slo ~tenant:"b" ~bytes:100 ~latency_ns:1_000.0;
  for _ = 1 to 9 do
    Slo.shed slo ~tenant:"b" ~bytes:100
  done;
  (match Slo.scores slo ~until_ns:100.0 with
  | [ s ] ->
    check_int "shed reported separately" 9 s.Slo.shed_count;
    check_int "failed stays zero" 0 s.Slo.failed;
    check_bool "shed counts against availability" true (abs_float (s.Slo.availability -. 0.1) < 1e-9);
    check_bool "bronze misses when shed" false s.Slo.met
  | _ -> Alcotest.fail "one tenant expected");
  check_bool "undeclared tenant is a harness bug" true
    (match Slo.deliver slo ~tenant:"ghost" ~bytes:1 ~latency_ns:1.0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_window_pressure_tier_filter () =
  let now = ref 0.0 in
  let slo = Slo.create ~now:(fun () -> !now) ~window_ns:100.0 () in
  Slo.declare slo ~tenant:"g" ~tier:Slo.Gold ();
  Slo.declare slo ~tenant:"b" ~tier:Slo.Bronze ();
  Slo.deliver slo ~tenant:"g" ~bytes:100 ~latency_ns:1_000.0;
  Slo.fail slo ~tenant:"b" ~bytes:100;
  check_bool "bronze distress visible unfiltered" true
    (Slo.window_pressure slo ~window:0 () > 0.49);
  check_bool "ladder's view ignores shed tier" true
    (Slo.window_pressure slo ~tiers:[ Slo.Gold; Slo.Silver ] ~window:0 () = 0.0)

(* ------------------------------------------------------------------ *)
(* Fabric link failure windows *)

let spine_link fab =
  match
    List.find_opt
      (fun n -> String.length n > 3 && String.sub n 0 3 = "tor" && Astring.String.is_infix ~affix:">spine" n)
      (Fabric.link_names fab)
  with
  | Some n -> n
  | None -> Alcotest.fail "no tor->spine link in topology"

let test_fabric_fail_repair () =
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed:3) (Topology.clos ~hosts:4 ~tors:2 ~spines:2 ()) in
  let name = spine_link fab in
  check_bool "up initially" true (Fabric.link_up fab ~name);
  Fabric.fail_link fab ~name;
  Fabric.fail_link fab ~name;
  check_bool "down after fail" false (Fabric.link_up fab ~name);
  check_int "fail idempotent" 1 (Fabric.links_down fab);
  Fabric.repair_link fab ~name;
  check_bool "up after repair" true (Fabric.link_up fab ~name);
  check_int "no links down" 0 (Fabric.links_down fab);
  check_bool "unknown link rejected" true
    (match Fabric.fail_link fab ~name:"tor9->warp0" with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_fabric_failed_link_drops () =
  let sim = Sim.create () in
  (* one spine: cross-tor traffic has exactly one uplink to die on *)
  let fab = Fabric.create sim (Rng.create ~seed:3) (Topology.clos ~hosts:4 ~tors:2 ~spines:1 ()) in
  for _ = 1 to 4 do
    ignore (Fabric.attach fab)
  done;
  Fabric.fail_link fab ~name:"tor0->spine0";
  let delivered = ref 0 and dropped = ref 0 in
  Fabric.send fab ~src_host:0 ~dst_host:2
    ~on_drop:(fun _ -> incr dropped)
    ~deliver:(fun _ -> incr delivered)
    (mk_pkt ~src:1 ~dst:2 1);
  Sim.run sim;
  check_int "dropped at the dark link" 1 !dropped;
  check_int "nothing delivered" 0 !delivered;
  Fabric.repair_link fab ~name:"tor0->spine0";
  Fabric.send fab ~src_host:0 ~dst_host:2
    ~on_drop:(fun _ -> incr dropped)
    ~deliver:(fun _ -> incr delivered)
    (mk_pkt ~src:1 ~dst:2 2);
  Sim.run sim;
  check_int "delivered after repair" 1 !delivered;
  check_int "no further drops" 1 !dropped

(* ------------------------------------------------------------------ *)
(* Guard breaker under seeded fault storms (QCheck) *)

(* The storm fails every attempt until the clock passes [storm_end];
   the driver keeps re-running the guarded operation with a pause
   between runs. Whatever the storm length, breaker threshold and
   pacing, the breaker must half-open after its cooldown and close on
   the first success — it never stays open once faults clear — and the
   operation must succeed exactly once (no double execution). *)
let prop_breaker_recovers =
  QCheck.Test.make ~name:"breaker closes once the storm clears" ~count:60
    QCheck.(triple (int_range 0 20) (int_range 1 4) (int_range 50 300))
    (fun (storm_steps, circuit_threshold, pause) ->
      let sim = Sim.create () in
      let policy =
        {
          Fault.Guard.max_attempts = 2;
          backoff_ns = 50.0;
          backoff_mult = 2.0;
          backoff_max_ns = 400.0;
          circuit_threshold;
          circuit_cooldown_ns = 1_000.0;
        }
      in
      let g = Fault.Guard.create ~policy sim ~name:"storm" in
      let storm_end = float_of_int storm_steps *. 100.0 in
      let successes = ref 0 in
      let op () =
        if Sim.clock () < storm_end then Error "storm"
        else begin
          incr successes;
          Ok ()
        end
      in
      let recovered = ref false in
      Sim.spawn sim (fun () ->
          let attempts = ref 0 in
          while (not !recovered) && !attempts < 500 do
            incr attempts;
            (match Fault.Guard.run g op with Ok () -> recovered := true | Error _ -> ());
            if not !recovered then Sim.delay (float_of_int pause)
          done);
      Sim.run sim;
      !recovered && Fault.Guard.state g <> Fault.Guard.Open && !successes = 1)

(* With the breaker disabled, a run that needs [n] attempts executes
   the operation exactly [min (n+1) max_attempts] times and succeeds at
   most once — retries never re-execute a completed request. *)
let prop_no_double_execution =
  QCheck.Test.make ~name:"retries never double-execute a request" ~count:100
    QCheck.(pair (int_range 1 5) (small_list (int_range 0 7)))
    (fun (max_attempts, failure_counts) ->
      let sim = Sim.create () in
      let policy =
        {
          Fault.Guard.default_policy with
          Fault.Guard.max_attempts;
          backoff_ns = 10.0;
          backoff_mult = 2.0;
          backoff_max_ns = 100.0;
          circuit_threshold = 0;
        }
      in
      let g = Fault.Guard.create ~policy sim ~name:"dup" in
      let ok = ref true in
      Sim.spawn sim (fun () ->
          List.iter
            (fun n ->
              let execs = ref 0 and successes = ref 0 in
              let op () =
                incr execs;
                if !execs <= n then Error "transient"
                else begin
                  incr successes;
                  Ok ()
                end
              in
              let r = Fault.Guard.run g op in
              let expect_ok = n < max_attempts in
              let expected_execs = min (n + 1) max_attempts in
              if (r = Ok ()) <> expect_ok then ok := false;
              if !execs <> expected_execs then ok := false;
              if !successes > 1 then ok := false)
            failure_counts);
      Sim.run sim;
      !ok)

(* ------------------------------------------------------------------ *)
(* End-to-end scenario runs (quick fleet) *)

let quick = Fleet.Live.quick_config

let test_scenario_deterministic () =
  let spec = Scenario.default_spec ~seed:11 () in
  let a = Scenario.run ~fleet:quick spec in
  let b = Scenario.run ~fleet:quick spec in
  check_string "same spec, byte-identical scorecard" a.Scenario.scorecard b.Scenario.scorecard;
  let c = Scenario.run ~fleet:quick (Scenario.default_spec ~seed:12 ()) in
  check_bool "different seed, different run" true (a.Scenario.scorecard <> c.Scenario.scorecard)

let test_scenario_observation_pure () =
  let spec = Scenario.default_spec ~seed:11 () in
  let bare = Scenario.run ~fleet:quick spec in
  let observed =
    Scenario.run ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) ~fleet:quick spec
  in
  check_string "sinks never perturb the run" bare.Scenario.scorecard observed.Scenario.scorecard

let test_scenario_faults_all_recovered () =
  let o = Scenario.run ~degrade:false ~fleet:quick (Scenario.default_spec ~seed:11 ()) in
  (* satellite of the horizon-recovery rule: the permanent host-failure
     windows must still be reported recovered at the horizon *)
  check_bool "fault summary balances"
    true
    (Astring.String.is_infix ~affix:"recovered/injected: 4/4" o.Scenario.fault_summary)

let test_degradation_helps () =
  let spec = Scenario.default_spec ~seed:2020 () in
  let off = Scenario.run ~degrade:false ~fleet:quick spec in
  let on_ = Scenario.run ~degrade:true ~fleet:quick spec in
  check_int "open loop never escalates" 0 off.Scenario.max_stage;
  check_bool "ladder engaged" true (on_.Scenario.max_stage >= 1);
  check_bool "more tenants meet their SLO" true (on_.Scenario.met > off.Scenario.met);
  (* the acceptance bar: a premium tenant that misses open-loop is
     rescued by the ladder *)
  let rescued =
    List.exists2
      (fun (o : Slo.tenant_score) (n : Slo.tenant_score) ->
        (not o.Slo.met) && n.Slo.met && n.Slo.tier <> Slo.Bronze)
      off.Scenario.scores on_.Scenario.scores
  in
  check_bool "a gold/silver tenant flips miss -> met" true rescued;
  check_bool "evacuation actually moved guests" true (on_.Scenario.evacuated_guests > 0)

let suites =
  [
    ( "scenario.dsl",
      [
        Alcotest.test_case "combinators" `Quick test_dsl_combinators;
        Alcotest.test_case "make validates" `Quick test_make_validates;
        Alcotest.test_case "parse_spec" `Quick test_parse_spec;
        Alcotest.test_case "per-kind streams independent" `Quick
          test_parse_spec_streams_independent;
        Alcotest.test_case "render deterministic" `Quick test_render_deterministic;
      ] );
    ( "scenario.slo",
      [
        Alcotest.test_case "window scoring" `Quick test_slo_windows;
        Alcotest.test_case "p99 objective" `Quick test_slo_p99_objective;
        Alcotest.test_case "shed separate column" `Quick test_slo_shed_separate_column;
        Alcotest.test_case "window pressure tier filter" `Quick test_window_pressure_tier_filter;
      ] );
    ( "scenario.fabric",
      [
        Alcotest.test_case "fail/repair link" `Quick test_fabric_fail_repair;
        Alcotest.test_case "failed link drops traffic" `Quick test_fabric_failed_link_drops;
      ] );
    ( "scenario.guard.prop",
      List.map QCheck_alcotest.to_alcotest [ prop_breaker_recovers; prop_no_double_execution ] );
    ( "scenario.run",
      [
        Alcotest.test_case "deterministic" `Slow test_scenario_deterministic;
        Alcotest.test_case "observation pure" `Slow test_scenario_observation_pure;
        Alcotest.test_case "faults recovered at horizon" `Slow test_scenario_faults_all_recovered;
        Alcotest.test_case "degradation helps" `Slow test_degradation_helps;
      ] );
  ]
