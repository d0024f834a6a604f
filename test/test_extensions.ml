(* Tests for the §6 "future work" features implemented here: live
   upgrade of the bm-hypervisor, SGX enclaves, and the on-demand
   virtualization prototype for live migration. *)

open Bm_engine
open Bm_guest
open Bm_hyp
open Bm_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Live upgrade *)

let test_live_upgrade_no_loss () =
  let tb = Testbed.make ~seed:41 () in
  let server, guest = Testbed.bm_guest tb in
  let completed = ref 0 in
  let max_lat = ref 0.0 in
  (* Steady storage I/O across the upgrade window. *)
  Sim.spawn tb.Testbed.sim (fun () ->
      for _ = 1 to 400 do
        let l = guest.Instance.blk ~op:`Read ~bytes_:4096 in
        max_lat := Float.max !max_lat l;
        incr completed
      done);
  (* Upgrade mid-run. *)
  let upgraded = ref 0 in
  Sim.spawn tb.Testbed.sim (fun () ->
      Sim.delay (Simtime.ms 10.0);
      match Bm_hypervisor.live_upgrade server ~name:"bm0" with
      | Ok v -> upgraded := v
      | Error e -> failwith e);
  Testbed.run tb;
  check_int "no request lost" 400 !completed;
  check_int "backend now v2" 2 !upgraded;
  check_int "version visible" 2 (Bm_hypervisor.backend_version server ~name:"bm0");
  (* The blackout shows as a bounded latency blip, not an error. *)
  check_bool "blip bounded (< 5ms)" true (!max_lat < Simtime.ms 5.0)

let test_live_upgrade_unknown_guest () =
  let tb = Testbed.make ~seed:41 () in
  let server, _ = Testbed.bm_guest tb in
  let result = ref (Ok 0) in
  Sim.spawn tb.Testbed.sim (fun () ->
      result := Bm_hypervisor.live_upgrade server ~name:"ghost");
  Testbed.run tb;
  check_bool "rejected" true (Result.is_error !result)

let test_bridge_pause_accumulates () =
  let sim = Sim.create () in
  let iobond = Bm_iobond.Iobond.create sim ~profile:Bm_iobond.Profile.Fpga () in
  let port = Bm_iobond.Iobond.attach_net iobond () in
  let bridge = port.Bm_iobond.Iobond.net_tx in
  let dev = port.Bm_iobond.Iobond.net_device in
  Bm_iobond.Queue_bridge.pause bridge;
  Sim.spawn sim (fun () ->
      for i = 1 to 5 do
        ignore
          (Bm_virtio.Virtio_net.xmit dev
             (Bm_virtio.Packet.make ~id:i ~src:1 ~dst:2 ~size:64 ~protocol:Bm_virtio.Packet.Udp
                ~sent_at:0.0 ()))
      done);
  Sim.run ~until:Simtime.(ms 1.0) sim;
  check_bool "paused: pop yields nothing" true (Bm_iobond.Queue_bridge.pop bridge = None);
  check_int "work accumulated in shadow ring" 5 (Bm_iobond.Queue_bridge.pending bridge);
  Bm_iobond.Queue_bridge.resume bridge;
  check_bool "resume: pop works" true (Bm_iobond.Queue_bridge.pop bridge <> None)

(* ------------------------------------------------------------------ *)
(* SGX *)

let test_sgx_native_on_bm_refused_on_vm () =
  let tb = Testbed.make ~seed:42 () in
  let _, bm = Testbed.bm_guest tb in
  let _, vm = Testbed.vm_guest tb in
  (match Sgx.create bm ~name:"trading-core" ~epc_mb:64 with
  | Ok enclave ->
    Sim.spawn tb.Testbed.sim (fun () ->
        for _ = 1 to 10 do
          Sgx.ecall enclave ~work_ns:10_000.0
        done);
    Testbed.run tb;
    check_int "transitions counted" 10 (Sgx.transitions enclave)
  | Error e -> Alcotest.fail e);
  match Sgx.create vm ~name:"trading-core" ~epc_mb:64 with
  | Ok _ -> Alcotest.fail "stock vm-guest must not run SGX (paper S6)"
  | Error _ -> ()

let test_sgx_epc_budget () =
  let tb = Testbed.make ~seed:42 () in
  let _, bm = Testbed.bm_guest tb in
  (match Sgx.create bm ~name:"big" ~epc_mb:10_000 with
  | Ok _ -> Alcotest.fail "EPC overcommit accepted"
  | Error e -> check_bool "mentions EPC" true (Astring.String.is_infix ~affix:"EPC" e));
  match Sgx.create bm ~name:"none" ~epc_mb:0 with
  | Ok _ -> Alcotest.fail "zero-size enclave accepted"
  | Error _ -> ()

let test_sgx_attestation () =
  let tb = Testbed.make ~seed:42 () in
  let _, bm = Testbed.bm_guest tb in
  match Sgx.create bm ~name:"webapp" ~epc_mb:16 with
  | Error e -> Alcotest.fail e
  | Ok enclave ->
    let quote = Sgx.attest enclave in
    check_bool "verifies" true (Sgx.verify_quote ~name:"webapp" ~quote);
    check_bool "wrong name fails" false (Sgx.verify_quote ~name:"webapp2" ~quote)

let test_sgx_ecall_cost () =
  let tb = Testbed.make ~seed:42 () in
  let _, bm = Testbed.bm_guest tb in
  match Sgx.create bm ~name:"micro" ~epc_mb:8 with
  | Error e -> Alcotest.fail e
  | Ok enclave ->
    let elapsed = ref 0.0 in
    Sim.spawn tb.Testbed.sim (fun () ->
        let t0 = Sim.clock () in
        Sgx.ecall enclave ~work_ns:0.0;
        elapsed := Sim.clock () -. t0);
    Testbed.run tb;
    (* 16k cycles at 2.5GHz = 6.4us, with the bm 4% bonus. *)
    check_bool "transition cost ~6us" true (!elapsed > 4_000.0 && !elapsed < 9_000.0)

(* ------------------------------------------------------------------ *)
(* On-demand virtualization / live migration *)

let test_inject_slows_guest () =
  let tb = Testbed.make ~seed:43 () in
  let _, bm = Testbed.bm_guest tb in
  let native = ref nan and injected_time = ref nan in
  Sim.spawn tb.Testbed.sim (fun () ->
      let t0 = Sim.clock () in
      bm.Instance.exec_mem_ns ~working_set:1e9 ~locality:0.5 1e6;
      native := Sim.clock () -. t0;
      match Live_migration.inject tb.Testbed.sim (Rng.create ~seed:43) bm with
      | Error e -> failwith e
      | Ok inj ->
        let guest = Live_migration.as_instance inj in
        check_bool "now reports virtual" true (guest.Instance.kind = Instance.Virtual);
        let t1 = Sim.clock () in
        guest.Instance.exec_mem_ns ~working_set:1e9 ~locality:0.5 1e6;
        injected_time := Sim.clock () -. t1);
  Testbed.run tb;
  check_bool "injected layer costs performance" true (!injected_time > !native *. 1.02)

let test_inject_requires_bare_metal () =
  let tb = Testbed.make ~seed:43 () in
  let _, vm = Testbed.vm_guest tb in
  let result = ref (Error "") in
  Sim.spawn tb.Testbed.sim (fun () ->
      result :=
        (match Live_migration.inject tb.Testbed.sim (Rng.create ~seed:1) vm with
        | Ok _ -> Ok ()
        | Error e -> Error e));
  Testbed.run tb;
  check_bool "vm rejected" true (Result.is_error !result)

let test_migration_converges () =
  let tb = Testbed.make ~seed:44 () in
  let _, bm = Testbed.bm_guest tb in
  let stats = ref None in
  Sim.spawn tb.Testbed.sim (fun () ->
      match Live_migration.inject tb.Testbed.sim (Rng.create ~seed:2) bm with
      | Error e -> failwith e
      | Ok inj -> (
        match Live_migration.migrate inj ~dirty_rate_gb_s:1.0 ~mem_gb:64 () with
        | Ok s -> stats := Some s
        | Error e -> failwith e));
  Testbed.run tb;
  match !stats with
  | None -> Alcotest.fail "migration did not finish"
  | Some s ->
    check_bool "several pre-copy rounds" true (s.Live_migration.precopy_rounds >= 2);
    check_bool "blackout under 10ms" true (s.Live_migration.blackout_ns <= 10e6 +. 1.0);
    check_bool "copied at least the RAM" true (s.Live_migration.bytes_copied >= 64e9);
    check_bool "total dominated by copy" true (s.Live_migration.total_ns > 5.12e9 *. 0.9)

let test_migration_never_converges () =
  let tb = Testbed.make ~seed:44 () in
  let _, bm = Testbed.bm_guest tb in
  let result = ref (Ok ()) in
  Sim.spawn tb.Testbed.sim (fun () ->
      match Live_migration.inject tb.Testbed.sim (Rng.create ~seed:2) bm with
      | Error e -> failwith e
      | Ok inj -> (
        match Live_migration.migrate inj ~dirty_rate_gb_s:20.0 ~mem_gb:64 () with
        | Ok _ -> result := Ok ()
        | Error e -> result := Error e));
  Testbed.run tb;
  check_bool "dirtying faster than link rejected" true (Result.is_error !result)

let suites =
  [
    ( "ext.live_upgrade",
      [
        Alcotest.test_case "no loss across upgrade" `Quick test_live_upgrade_no_loss;
        Alcotest.test_case "unknown guest" `Quick test_live_upgrade_unknown_guest;
        Alcotest.test_case "bridge pause accumulates" `Quick test_bridge_pause_accumulates;
      ] );
    ( "ext.sgx",
      [
        Alcotest.test_case "native on bm, refused on vm" `Quick test_sgx_native_on_bm_refused_on_vm;
        Alcotest.test_case "EPC budget" `Quick test_sgx_epc_budget;
        Alcotest.test_case "attestation" `Quick test_sgx_attestation;
        Alcotest.test_case "ecall transition cost" `Quick test_sgx_ecall_cost;
      ] );
    ( "ext.live_migration",
      [
        Alcotest.test_case "inject slows guest" `Quick test_inject_slows_guest;
        Alcotest.test_case "inject requires bare metal" `Quick test_inject_requires_bare_metal;
        Alcotest.test_case "pre-copy converges" `Quick test_migration_converges;
        Alcotest.test_case "non-convergence detected" `Quick test_migration_never_converges;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* IO-Bond flow offload (§6) *)

let mk ?(proto = Bm_virtio.Packet.Udp) ~src ~dst id =
  Bm_virtio.Packet.make ~id ~src ~dst ~size:64 ~protocol:proto ~sent_at:0.0 ()

let test_offload_classify_install () =
  let ot = Bm_iobond.Offload.create () in
  let pkt = mk ~src:1 ~dst:2 7 in
  check_bool "first packet slow" true (Bm_iobond.Offload.classify ot pkt = `Slow_path);
  Bm_iobond.Offload.install ot pkt;
  check_bool "then offloaded" true (Bm_iobond.Offload.classify ot pkt = `Offloaded);
  (* A different protocol is a different flow. *)
  check_bool "other proto slow" true
    (Bm_iobond.Offload.classify ot (mk ~proto:Bm_virtio.Packet.Tcp ~src:1 ~dst:2 8) = `Slow_path);
  Bm_iobond.Offload.install ot pkt;
  check_int "install idempotent" 1 (Bm_iobond.Offload.occupancy ot)

let test_offload_eviction () =
  let ot = Bm_iobond.Offload.create () in
  (* One flow more than the 2,048-entry table holds. *)
  for i = 0 to 2048 do
    Bm_iobond.Offload.install ot (mk ~src:i ~dst:100 i)
  done;
  check_int "bounded occupancy" 2048 (Bm_iobond.Offload.occupancy ot);
  check_int "evictions counted" 1 (Bm_iobond.Offload.evictions ot);
  (* The most recently installed flows survive. *)
  check_bool "newest survives" true
    (Bm_iobond.Offload.classify ot (mk ~src:2048 ~dst:100 99) = `Offloaded);
  check_bool "second oldest survives" true
    (Bm_iobond.Offload.classify ot (mk ~src:1 ~dst:100 97) = `Offloaded);
  check_bool "oldest evicted" true
    (Bm_iobond.Offload.classify ot (mk ~src:0 ~dst:100 98) = `Slow_path)

let test_offload_end_to_end () =
  let tb = Testbed.make ~seed:45 () in
  let server =
    Bm_hyp.Bm_hypervisor.create_server tb.Testbed.sim tb.Testbed.rng ~fabric:tb.Testbed.fabric
      ~storage:tb.Testbed.storage ~boards:2 ()
  in
  let g name =
    Result.get_ok (Bm_hyp.Bm_hypervisor.provision server ~name ~offload:true ())
  in
  let a = g "a" and b = g "b" in
  let got = ref 0 in
  b.Instance.set_rx_handler (fun pkt -> got := !got + pkt.Bm_virtio.Packet.count);
  Sim.spawn tb.Testbed.sim (fun () ->
      for i = 1 to 50 do
        ignore
          (a.Instance.send
             (Bm_virtio.Packet.make ~id:i ~src:a.Instance.endpoint ~dst:b.Instance.endpoint
                ~size:64 ~protocol:Bm_virtio.Packet.Udp ~sent_at:(Sim.clock ()) ()))
      done);
  Sim.run ~until:Simtime.(ms 50.0) tb.Testbed.sim;
  check_int "all delivered through hw path" 50 !got;
  match Bm_hyp.Bm_hypervisor.offload_table server ~name:"a" with
  | None -> Alcotest.fail "offload table missing"
  | Some ot ->
    check_bool "flow installed once" true (Bm_iobond.Offload.occupancy ot >= 1);
    check_bool "most packets offloaded" true
      (Bm_iobond.Offload.hits ot > Bm_iobond.Offload.misses ot)

let offload_suites =
  [
    ( "ext.offload",
      [
        Alcotest.test_case "classify/install/remove" `Quick test_offload_classify_install;
        Alcotest.test_case "eviction" `Quick test_offload_eviction;
        Alcotest.test_case "end to end hw path" `Quick test_offload_end_to_end;
      ] );
  ]

let suites = suites @ offload_suites
