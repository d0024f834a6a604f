(* Fault plans, guard semantics, and recovery invariants: plans are
   deterministic, guards retry/timeout/trip as specified, and the
   datapath neither loses nor duplicates a request under any plan. *)

open Bm_engine
open Bm_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let recoverable_counts =
  [
    (Fault.Link_down, 2);
    (Fault.Dma_stall, 2);
    (Fault.Mailbox_drop, 2);
    (Fault.Firmware_wedge, 1);
    (Fault.Pmd_crash, 1);
  ]

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_plan_deterministic () =
  let a = Fault.make_plan ~seed:7 recoverable_counts in
  let b = Fault.make_plan ~seed:7 recoverable_counts in
  check_string "same seed, same plan" (Fault.render_plan a) (Fault.render_plan b);
  let c = Fault.make_plan ~seed:8 recoverable_counts in
  check_bool "different seed, different plan" false
    (Fault.render_plan a = Fault.render_plan c)

let test_plan_streams_independent () =
  (* Each kind draws from its own split stream, so asking for more
     pmd_crash events must not move the link_down times. *)
  let times plan =
    List.filter_map
      (fun (e : Fault.event) -> if e.Fault.kind = Fault.Link_down then Some e.Fault.at else None)
      plan.Fault.events
  in
  let small = Fault.make_plan ~seed:11 [ (Fault.Link_down, 3) ] in
  let big = Fault.make_plan ~seed:11 [ (Fault.Link_down, 3); (Fault.Pmd_crash, 5) ] in
  Alcotest.(check (list (float 0.0))) "link_down times unmoved" (times small) (times big)

let test_parse_spec () =
  (match Fault.parse_spec "42:link_down=2,firmware_wedge=1" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check_int "seed" 42 p.Fault.seed;
    check_int "events" 3 (List.length p.Fault.events));
  (match Fault.parse_spec "7:default" with
  | Error e -> Alcotest.fail e
  | Ok p -> check_bool "default plan non-empty" true (p.Fault.events <> []));
  (match Fault.parse_spec "7:warp_core_breach=1" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error _ -> ());
  match Fault.parse_spec "no-seed" with
  | Ok _ -> Alcotest.fail "missing seed accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Injector *)

let one_event_plan ~kind ~at ~duration_ns =
  { Fault.seed = 0; horizon_ns = 1e6; events = [ { Fault.kind; at; duration_ns } ] }

let test_window_opens_and_closes () =
  let sim = Sim.create () in
  let f = Fault.create sim (one_event_plan ~kind:Fault.Link_down ~at:100.0 ~duration_ns:50.0) in
  let fired = ref 0 in
  Fault.subscribe f Fault.Link_down (fun _ -> incr fired);
  Fault.arm f;
  let cleared_at = ref 0.0 in
  Sim.spawn sim (fun () ->
      check_bool "closed before" false (Fault.is_active f Fault.Link_down);
      Sim.delay 120.0;
      check_bool "open inside window" true (Fault.is_active f Fault.Link_down);
      Fault.block_until_clear f Fault.Link_down;
      cleared_at := Sim.clock ());
  Sim.run sim;
  check_int "subscriber fired once" 1 !fired;
  check_int "injected" 1 (Fault.injected f);
  check_bool "unblocked at window close" true (!cleared_at >= 150.0)

let test_null_injector () =
  let sim = Sim.create () in
  Fault.subscribe Fault.none Fault.Pmd_crash (fun _ -> Alcotest.fail "null injector fired");
  Sim.spawn sim (fun () ->
      let t0 = Sim.clock () in
      Fault.block_until_clear Fault.none Fault.Firmware_wedge;
      check_bool "no wait on null injector" true (Sim.clock () = t0));
  Sim.run sim;
  check_bool "never active" false (Fault.is_active Fault.none Fault.Link_down)

let test_recovery_at_horizon () =
  (* Regression: a window ending exactly at the plan horizon — and a
     permanent Server_failure window that would outlive it — must both
     be reported recovered by the terminal recovery event, so
     availability accounting never leaks an open window. *)
  let sim = Sim.create () in
  let plan =
    {
      Fault.seed = 0;
      horizon_ns = 1_000.0;
      events =
        [
          { Fault.kind = Fault.Link_down; at = 500.0; duration_ns = 500.0 };
          { Fault.kind = Fault.Server_failure; at = 600.0; duration_ns = infinity };
        ];
    }
  in
  let f = Fault.create sim plan in
  Fault.arm f;
  Sim.run sim;
  check_int "both windows opened" 2 (Fault.injected f);
  check_int "recovered exactly once each" 2 (Fault.recovered f);
  check_bool "summary balances" true
    (Astring.String.is_infix ~affix:"recovered/injected: 2/2" (Fault.summary f))

(* ------------------------------------------------------------------ *)
(* Guard *)

let test_guard_retries_until_success () =
  let sim = Sim.create () in
  let g = Fault.Guard.create sim ~name:"t" in
  let attempts = ref 0 in
  Sim.spawn sim (fun () ->
      let result =
        Fault.Guard.run g (fun () ->
            incr attempts;
            if !attempts < 3 then Error "transient" else Ok "done")
      in
      check_bool "eventually succeeds" true (result = Ok "done"));
  Sim.run sim;
  check_int "attempts" 3 !attempts;
  check_int "retries counted" 2 (Fault.Guard.retries g)

let test_guard_first_try_is_free () =
  let sim = Sim.create () in
  let g = Fault.Guard.create sim ~name:"t" in
  Sim.spawn sim (fun () ->
      Sim.delay 5.0;
      let t0 = Sim.clock () in
      (match Fault.Guard.run g (fun () -> Ok ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check_bool "healthy path pays nothing" true (Sim.clock () = t0));
  Sim.run sim

let test_guard_circuit_breaker () =
  let sim = Sim.create () in
  let policy =
    {
      Fault.Guard.default_policy with
      max_attempts = 2;
      backoff_ns = 10.0;
      circuit_threshold = 2;
      circuit_cooldown_ns = 1e9;
    }
  in
  let g = Fault.Guard.create ~policy sim ~name:"t" in
  let attempts = ref 0 in
  let failing () =
    incr attempts;
    Error "down"
  in
  Sim.spawn sim (fun () ->
      (match Fault.Guard.run g failing with Ok _ -> Alcotest.fail "?" | Error _ -> ());
      (match Fault.Guard.run g failing with Ok _ -> Alcotest.fail "?" | Error _ -> ());
      check_bool "breaker tripped" true (Fault.Guard.state g = Fault.Guard.Open);
      let before = !attempts in
      (match Fault.Guard.run g failing with Ok _ -> Alcotest.fail "?" | Error _ -> ());
      check_int "rejected without attempting" before !attempts);
  Sim.run sim;
  check_int "two exhausted runs" 4 !attempts;
  check_int "one trip" 1 (Fault.Guard.circuit_opens g)

(* ------------------------------------------------------------------ *)
(* Datapath recovery *)

(* [workers] fibers issue [per_worker] sequential 4 KiB reads; returns
   how many came back (the run drains, so anything lost shows up as a
   stuck fiber and a short count). *)
let drive_reads tb inst ~workers ~per_worker =
  let done_ = ref 0 in
  for _ = 1 to workers do
    Sim.spawn tb.Testbed.sim (fun () ->
        for _ = 1 to per_worker do
          ignore (inst.Bm_guest.Instance.blk ~op:`Read ~bytes_:4096);
          incr done_
        done)
  done;
  Testbed.run tb;
  !done_

let meter_count m name =
  match Metrics.meter m name with Some meter -> Stats.Meter.count meter | None -> 0

let test_wedge_reset_recovers () =
  let metrics = Metrics.create () in
  let faults = one_event_plan ~kind:Fault.Firmware_wedge ~at:150_000.0 ~duration_ns:100_000.0 in
  let tb = Testbed.make ~seed:5 ~metrics ~faults () in
  let server, inst = Testbed.bm_guest tb in
  let completions = drive_reads tb inst ~workers:4 ~per_worker:5 in
  check_int "every read returned" 20 completions;
  check_bool "device was reset" true (Metrics.counter_value metrics "iobond.resets" >= 1.0);
  let board =
    match Bm_hyp.Bm_hypervisor.guest_board server ~name:"bm0" with
    | Some b -> b
    | None -> Alcotest.fail "guest board missing"
  in
  check_int "reset count on the device" 1 (Bm_iobond.Iobond.resets (Bm_guest.Board.iobond board))

let test_pmd_crash_respawns () =
  let metrics = Metrics.create () in
  let faults = one_event_plan ~kind:Fault.Pmd_crash ~at:200_000.0 ~duration_ns:150_000.0 in
  let tb = Testbed.make ~seed:5 ~metrics ~faults () in
  let server, inst = Testbed.bm_guest tb in
  let completions = drive_reads tb inst ~workers:4 ~per_worker:5 in
  check_int "every read returned" 20 completions;
  check_int "one crash" 1 (Bm_hyp.Bm_hypervisor.pmd_crashes server);
  check_bool "backend is back" true (Bm_hyp.Bm_hypervisor.pmd_alive server);
  check_bool "respawn recorded" true (Metrics.counter_value metrics "hyp.bm.pmd_respawns" = 1.0)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Arbitrary plan over the recoverable kinds. *)
let plan_gen =
  QCheck.Gen.(
    map2
      (fun seed counts ->
        Fault.make_plan ~seed
          (List.map2 (fun (kind, _) n -> (kind, n)) recoverable_counts counts))
      (int_range 1 10_000)
      (flatten_l (List.map (fun _ -> int_range 0 2) recoverable_counts)))

let plan_arb = QCheck.make ~print:Fault.render_plan plan_gen

(* The forward pumps also mirror the guest's pre-posted net rx buffers,
   so the expected chain count comes from a clean run of the identical
   workload, not from the request count alone. *)
let clean_forwarded =
  lazy
    (let metrics = Metrics.create () in
     let tb = Testbed.make ~seed:3 ~metrics () in
     let _server, inst = Testbed.bm_guest tb in
     ignore (drive_reads tb inst ~workers:3 ~per_worker:4);
     meter_count metrics "iobond.forwarded")

let prop_no_loss_no_dup =
  QCheck.Test.make ~name:"completions = requests under any fault plan" ~count:25 plan_arb
    (fun plan ->
      let metrics = Metrics.create () in
      let tb = Testbed.make ~seed:3 ~metrics ~faults:plan () in
      let _server, inst = Testbed.bm_guest tb in
      let issued = 3 * 4 in
      let completions = drive_reads tb inst ~workers:3 ~per_worker:4 in
      (* Every blocking call returned (no loss); every request was
         completed exactly once (no duplicates); recovery re-posted no
         chain a second time (forward count matches the clean run). *)
      completions = issued
      && meter_count metrics "iobond.completed" = issued
      && meter_count metrics "iobond.forwarded" = Lazy.force clean_forwarded)

let prop_same_seed_same_metrics =
  QCheck.Test.make ~name:"same seed + same plan = identical metrics" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let once () =
        let metrics = Metrics.create () in
        let plan = Fault.make_plan ~seed recoverable_counts in
        let tb = Testbed.make ~seed ~metrics ~faults:plan () in
        let _server, inst = Testbed.bm_guest tb in
        ignore (drive_reads tb inst ~workers:3 ~per_worker:4);
        Metrics.rows metrics
      in
      once () = once ())

let test_availability_outcome_deterministic () =
  let once () =
    match
      Bmhive.Experiments.(run { default_ctx with quick = true; seed = 2020 } [ "availability" ])
    with
    | [ (_, Ok o) ] -> o
    | _ -> Alcotest.fail "availability did not run"
  in
  check_bool "bit-identical outcome" true (once () = once ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
        Alcotest.test_case "per-kind streams independent" `Quick test_plan_streams_independent;
        Alcotest.test_case "parse_spec" `Quick test_parse_spec;
      ] );
    ( "faults.injector",
      [
        Alcotest.test_case "window opens and closes" `Quick test_window_opens_and_closes;
        Alcotest.test_case "null injector" `Quick test_null_injector;
        Alcotest.test_case "recovery at horizon" `Quick test_recovery_at_horizon;
      ] );
    ( "faults.guard",
      [
        Alcotest.test_case "retries until success" `Quick test_guard_retries_until_success;
        Alcotest.test_case "first try is free" `Quick test_guard_first_try_is_free;
        Alcotest.test_case "circuit breaker" `Quick test_guard_circuit_breaker;
      ] );
    ( "faults.recovery",
      [
        Alcotest.test_case "wedge reset recovers" `Quick test_wedge_reset_recovers;
        Alcotest.test_case "pmd crash respawns" `Quick test_pmd_crash_respawns;
        Alcotest.test_case "availability deterministic" `Slow
          test_availability_outcome_deterministic;
      ] );
    ("faults.properties", qsuite [ prop_no_loss_no_dup; prop_same_seed_same_metrics ]);
  ]
