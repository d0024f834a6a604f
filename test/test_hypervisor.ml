(* Tests for both hypervisors and the fleet models. *)

open Bm_engine
open Bm_virtio
open Bm_cloud
open Bm_guest
open Bm_hyp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type world = {
  sim : Sim.t;
  rng : Rng.t;
  fabric : Vswitch.fabric;
  storage : Blockstore.t;
}

let make_world ?(seed = 42) () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let fabric = Vswitch.create_fabric () in
  let storage = Blockstore.create sim (Rng.split rng) ~kind:Blockstore.Cloud_ssd () in
  { sim; rng; fabric; storage }

let burst ?(count = 1) ?(size = 64) ~src ~dst ~now id =
  Packet.make ~id ~src ~dst ~size:(size * count) ~count ~protocol:Packet.Udp ~sent_at:now ()

(* ------------------------------------------------------------------ *)
(* Vmexit / Ept / Nested units *)

let test_vmexit_costs () =
  check_bool "heavy exits ~10us" true (Vmexit.handle_ns Vmexit.Io_instruction = 10_000.0);
  let c = Vmexit.create_counters () in
  Vmexit.record c Vmexit.Io_instruction;
  Vmexit.record c Vmexit.Ept_violation;
  Vmexit.record c Vmexit.Io_instruction;
  check_int "total" 3 (Vmexit.total c);
  check_int "per reason" 2 (Vmexit.count c Vmexit.Io_instruction);
  Alcotest.(check (float 1.0)) "time accumulates" 32_000.0 (Vmexit.total_time_ns c);
  Alcotest.(check (float 1.0)) "rate" 3.0 (Vmexit.rate_per_s c ~elapsed_ns:1e9)

let test_ept_overhead_shape () =
  let tlb = Bm_hw.Tlb.create () in
  (* The vm overhead is the ratio of the virtualized and native factors. *)
  let vm_overhead ~working_set =
    Ept.dilation_factor tlb ~virtualized:true ~working_set ~locality:0.5
    /. Ept.dilation_factor tlb ~virtualized:false ~working_set ~locality:0.5
    -. 1.0
  in
  (* Small working set: fits TLB, no vm memory overhead. *)
  Alcotest.(check (float 1e-9)) "no overhead when fits" 0.0 (vm_overhead ~working_set:1e6);
  (* Large working set: vm pays more than native. *)
  let ov = vm_overhead ~working_set:1e9 in
  check_bool "positive overhead" true (ov > 0.01);
  check_bool "bounded" true (ov < 1.0)

let test_nested_factors () =
  check_bool "cpu 80%" true (Nested.cpu_efficiency = 0.8);
  check_bool "io 25%" true (Nested.io_efficiency = 0.25);
  let eff = Nested.derived_cpu_efficiency ~exit_rate_per_s:8_000.0 in
  check_bool "mechanistic check near 0.8" true (Float.abs (eff -. 0.8) < 0.05)

(* ------------------------------------------------------------------ *)
(* Preempt *)

let test_preempt_shared_worse_than_exclusive () =
  let w = make_world () in
  let run mode =
    let p = Preempt.create w.sim (Rng.split w.rng) ~mode ~host_load:0.6 () in
    Sim.spawn w.sim (fun () ->
        for _ = 1 to 50_000 do
          Preempt.maybe_steal p
        done);
    Sim.run w.sim;
    Preempt.stolen_ns p
  in
  let shared = run Preempt.Shared in
  let exclusive = run Preempt.Exclusive in
  check_bool "shared steals more" true (shared > 3.0 *. exclusive);
  check_bool "some steal happened" true (shared > 0.0)

let test_preempt_fig1_calibration () =
  let rng = Rng.create ~seed:7 in
  let n = 20_000 in
  let pctl arr p =
    Array.sort compare arr;
    arr.(min (n - 1) (int_of_float (float_of_int n *. p /. 100.0)))
  in
  let at_load load mode =
    Array.init n (fun _ -> Preempt.sample_window_fraction rng ~mode ~host_load:load)
  in
  let s_low = at_load 0.3 Preempt.Shared and s_high = at_load 0.8 Preempt.Shared in
  let e_mid = at_load 0.5 Preempt.Exclusive in
  let s99_low = pctl s_low 99.0 and s99_high = pctl s_high 99.0 in
  let s999_high = pctl s_high 99.9 in
  let e99 = pctl e_mid 99.0 and e999 = pctl e_mid 99.9 in
  (* Paper: shared p99 in 2-4%, p99.9 up to ~10%; exclusive ~0.2%/0.5%. *)
  check_bool "shared p99 low-load ~2%" true (s99_low > 0.01 && s99_low < 0.035);
  check_bool "shared p99 high-load ~4%" true (s99_high > 0.025 && s99_high < 0.06);
  check_bool "shared p99.9 high-load ~10%" true (s999_high > 0.05 && s999_high < 0.16);
  check_bool "exclusive p99 ~0.2%" true (e99 > 0.0008 && e99 < 0.005);
  check_bool "exclusive p99.9 ~0.5%" true (e999 > 0.002 && e999 < 0.012);
  check_bool "ordering" true (e99 < s99_low && e999 < s999_high)

(* ------------------------------------------------------------------ *)
(* Fleet *)

let test_fleet_table2 () =
  let rng = Rng.create ~seed:11 in
  let survey = Fleet.survey_exits rng ~vms:300_000 in
  (* Paper: 3.82% / 0.37% / 0.13%. Accept the right decades. *)
  check_bool "over 10K ~3.8%" true (survey.Fleet.over_10k > 0.02 && survey.Fleet.over_10k < 0.06);
  check_bool "over 50K ~0.37%" true
    (survey.Fleet.over_50k > 0.002 && survey.Fleet.over_50k < 0.007);
  check_bool "over 100K ~0.13%" true
    (survey.Fleet.over_100k > 0.0006 && survey.Fleet.over_100k < 0.0025);
  check_bool "monotone" true
    (survey.Fleet.over_10k > survey.Fleet.over_50k
    && survey.Fleet.over_50k > survey.Fleet.over_100k)

let test_fleet_fig1_windows () =
  let rng = Rng.create ~seed:13 in
  let windows = Fleet.survey_preemption rng ~vms:5_000 ~hours:24 in
  check_int "24 windows" 24 (List.length windows);
  List.iter
    (fun w ->
      check_bool "p999 >= p99 (shared)" true (w.Fleet.shared_p999 >= w.Fleet.shared_p99);
      check_bool "exclusive better" true (w.Fleet.exclusive_p99 < w.Fleet.shared_p99))
    windows

(* ------------------------------------------------------------------ *)
(* KVM vm-guest end-to-end *)

let test_kvm_provisioning_capacity () =
  let w = make_world () in
  let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let vm = Kvm.create_vm host (Kvm.default_config ~name:"vm0") in
  check_bool "name" true (vm.Instance.name = "vm0");
  Alcotest.check_raises "over-provision rejected"
    (Invalid_argument "Kvm.create_vm: host out of sellable threads") (fun () ->
      ignore (Kvm.create_vm host { (Kvm.default_config ~name:"vm1") with vcpus = 32 }))

let test_kvm_network_loopback () =
  let w = make_world () in
  let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let a = Kvm.create_vm host { (Kvm.default_config ~name:"a") with vcpus = 16 } in
  let b = Kvm.create_vm host { (Kvm.default_config ~name:"b") with vcpus = 16 } in
  let got = ref 0 in
  b.Instance.set_rx_handler (fun pkt -> got := !got + pkt.Packet.count);
  Sim.spawn w.sim (fun () ->
      Sim.delay 1_000.0;
      for i = 1 to 10 do
        ignore
          (a.Instance.send
             (burst ~count:8 ~src:a.Instance.endpoint ~dst:b.Instance.endpoint
                ~now:(Sim.clock ()) i))
      done);
  Sim.run ~until:Simtime.(ms 50.0) w.sim;
  check_int "all bursts delivered" 80 !got

let test_kvm_blk_latency_positive () =
  let w = make_world () in
  let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let vm = Kvm.create_vm host (Kvm.default_config ~name:"vm0") in
  let lat = ref nan in
  Sim.spawn w.sim (fun () -> lat := vm.Instance.blk ~op:`Read ~bytes_:4096);
  Sim.run ~until:Simtime.(ms 100.0) w.sim;
  (* Cloud storage median ~100us + vm path overheads. *)
  check_bool "latency sane" true (!lat > 50_000.0 && !lat < 1_000_000.0)

let test_kvm_probe_costs_exits () =
  let w = make_world () in
  let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let vm = Kvm.create_vm host (Kvm.default_config ~name:"vm0") in
  let accesses = ref 0 in
  Sim.spawn w.sim (fun () ->
      match vm.Instance.probe () with
      | Ok n -> accesses := n
      | Error e -> Alcotest.fail e);
  Sim.run w.sim;
  check_bool "probe trapped" true (!accesses > 20);
  match Kvm.exit_counters host ~name:"vm0" with
  | Some c -> check_int "one exit per access" !accesses (Vmexit.count c Vmexit.Io_instruction)
  | None -> Alcotest.fail "no counters"

let test_kvm_exec_slower_than_native () =
  let w = make_world () in
  let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let vm = Kvm.create_vm host { (Kvm.default_config ~name:"vm0") with host_load = 0.0 } in
  let elapsed = ref 0.0 in
  Sim.spawn w.sim (fun () ->
      let t0 = Sim.clock () in
      vm.Instance.exec_ns 1e6;
      elapsed := Sim.clock () -. t0);
  Sim.run w.sim;
  check_bool "dilated" true (!elapsed > 1e6)

let test_kvm_nested_dilation () =
  let w = make_world () in
  let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let plain = Kvm.create_vm host { (Kvm.default_config ~name:"plain") with vcpus = 16; host_load = 0.0 } in
  let nested =
    Kvm.create_vm host
      { (Kvm.default_config ~name:"nested") with vcpus = 16; host_load = 0.0; nested = true }
  in
  let time inst =
    let r = ref 0.0 in
    Sim.spawn w.sim (fun () ->
        let t0 = Sim.clock () in
        inst.Instance.exec_ns 1e6;
        r := Sim.clock () -. t0);
    Sim.run w.sim;
    !r
  in
  let t_plain = time plain in
  let t_nested = time nested in
  (* Nested guest ~80% of native CPU performance (a few percent of
     cache-interference noise rides on top). *)
  Alcotest.(check (float 0.12)) "nested/plain ~ 1.25" 1.25 (t_nested /. t_plain)

(* ------------------------------------------------------------------ *)
(* Bm_hypervisor end-to-end *)

let test_bm_provision_lifecycle () =
  let w = make_world () in
  let server =
    Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage ~boards:4 ()
  in
  check_int "4 free boards" 4 (Bm_hypervisor.free_boards server);
  (match Bm_hypervisor.provision server ~name:"g0" () with
  | Ok inst -> check_bool "bm kind" true (inst.Instance.kind = Instance.Bare_metal Bm_iobond.Profile.Fpga)
  | Error e -> Alcotest.fail e);
  check_int "3 free boards" 3 (Bm_hypervisor.free_boards server);
  (match Bm_hypervisor.provision server ~name:"g0" () with
  | Ok _ -> Alcotest.fail "duplicate name accepted"
  | Error _ -> ())

let test_bm_board_cap () =
  let w = make_world () in
  Alcotest.check_raises "17 boards rejected"
    (Invalid_argument "Bm_hypervisor: 1..16 boards per server (\xc2\xa73.3)") (fun () ->
      ignore
        (Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage ~boards:17 ()))

let test_bm_network_between_guests () =
  let w = make_world () in
  let server =
    Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage ~boards:2 ()
  in
  let a = Result.get_ok (Bm_hypervisor.provision server ~name:"a" ()) in
  let b = Result.get_ok (Bm_hypervisor.provision server ~name:"b" ()) in
  let got = ref 0 in
  let latencies = ref [] in
  b.Instance.set_rx_handler (fun pkt ->
      got := !got + pkt.Packet.count;
      latencies := (Sim.now w.sim -. pkt.Packet.sent_at) :: !latencies);
  Sim.spawn w.sim (fun () ->
      Sim.delay Simtime.(ms 1.0);
      for i = 1 to 10 do
        ignore
          (a.Instance.send
             (burst ~count:8 ~src:a.Instance.endpoint ~dst:b.Instance.endpoint
                ~now:(Sim.clock ()) i))
      done);
  Sim.run ~until:Simtime.(ms 100.0) w.sim;
  check_int "all bursts delivered" 80 !got;
  check_int "no rx drops" 0 (Bm_hypervisor.rx_no_buffer_drops server ~name:"b");
  (* Latency must include the doorbell + DMA + PMD + switch + rx DMA path:
     several microseconds, not sub-microsecond. *)
  List.iter (fun l -> check_bool "bm path latency > 2us" true (l > 2_000.0)) !latencies

let test_bm_blk_faster_than_vm () =
  (* Same storage backend; the bm path must beat the vm path on average
     latency (§4.3: ~25% faster). *)
  let run_bm () =
    let w = make_world ~seed:5 () in
    let server = Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
    let g = Result.get_ok (Bm_hypervisor.provision server ~name:"g" ()) in
    let acc = ref 0.0 in
    Sim.spawn w.sim (fun () ->
        for _ = 1 to 200 do
          acc := !acc +. g.Instance.blk ~op:`Read ~bytes_:4096
        done);
    Sim.run w.sim;
    !acc /. 200.0
  in
  let run_vm () =
    let w = make_world ~seed:5 () in
    let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
    let vm = Kvm.create_vm host (Kvm.default_config ~name:"vm0") in
    let acc = ref 0.0 in
    Sim.spawn w.sim (fun () ->
        for _ = 1 to 200 do
          acc := !acc +. vm.Instance.blk ~op:`Read ~bytes_:4096
        done);
    Sim.run w.sim;
    !acc /. 200.0
  in
  let bm = run_bm () and vm = run_vm () in
  check_bool "bm faster" true (bm < vm);
  let speedup = (vm -. bm) /. bm in
  check_bool "speedup in sane band (5%..60%)" true (speedup > 0.05 && speedup < 0.6)

let test_bm_exec_native_speed () =
  let w = make_world () in
  let server = Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let g = Result.get_ok (Bm_hypervisor.provision server ~name:"g" ()) in
  let elapsed = ref 0.0 in
  Sim.spawn w.sim (fun () ->
      let t0 = Sim.clock () in
      g.Instance.exec_ns 1e6;
      elapsed := Sim.clock () -. t0);
  Sim.run w.sim;
  (* 4% faster than the reference physical machine. *)
  Alcotest.(check (float 1e3)) "bm bonus" (1e6 /. 1.04) !elapsed

let test_bm_probe_uses_iobond_cost () =
  let w = make_world () in
  let server = Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  let g = Result.get_ok (Bm_hypervisor.provision server ~name:"g" ()) in
  let elapsed = ref 0.0 and accesses = ref 0 in
  Sim.spawn w.sim (fun () ->
      let t0 = Sim.clock () in
      (match g.Instance.probe () with
      | Ok n -> accesses := n
      | Error e -> Alcotest.fail e);
      elapsed := Sim.clock () -. t0);
  Sim.run w.sim;
  Alcotest.(check (float 1.0)) "1.6us per access" (float_of_int !accesses *. 1600.0) !elapsed

let test_firmware_signature_gate () =
  let w = make_world () in
  let server = Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
  ignore (Result.get_ok (Bm_hypervisor.provision server ~name:"g" ()));
  match Bm_hypervisor.guest_board server ~name:"g" with
  | None -> Alcotest.fail "no board"
  | Some board ->
    let fw = Board.firmware board in
    let payload = "new firmware v2" in
    let good = Firmware.sign ~key:Board.vendor_key ~payload in
    let evil = Firmware.sign ~key:0xBAD ~payload in
    (match Firmware.update fw ~version:"2.0" ~payload ~signature:evil with
    | Ok () -> Alcotest.fail "forged signature accepted!"
    | Error _ -> ());
    check_bool "still v1" true (Firmware.version fw = "1.0.0");
    (match Firmware.update fw ~version:"2.0" ~payload ~signature:good with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    check_bool "updated" true (Firmware.version fw = "2.0");
    (* Tampering after signing is also rejected. *)
    (match Firmware.update fw ~version:"3.0" ~payload:(payload ^ "!") ~signature:good with
    | Ok () -> Alcotest.fail "tampered payload accepted!"
    | Error _ -> ());
    check_int "rejections counted" 2 (Firmware.rejected_count fw)

(* Boot the same image on both substrates (interoperability, §3.1). *)
let test_boot_same_image_both_substrates () =
  let boot_on make =
    let w = make_world ~seed:3 () in
    let inst = make w in
    let result = ref None in
    Sim.spawn w.sim (fun () ->
        result := Some (Boot.run inst ~image:Image.centos7 ()));
    Sim.run ~until:Simtime.(sec 30.0) w.sim;
    match !result with
    | Some (Ok t) -> t
    | Some (Error e) -> Alcotest.fail e
    | None -> Alcotest.fail "boot did not finish"
  in
  let bm =
    boot_on (fun w ->
        let server =
          Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage ()
        in
        Result.get_ok (Bm_hypervisor.provision server ~name:"g" ()))
  in
  let vm =
    boot_on (fun w ->
        let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
        Kvm.create_vm host (Kvm.default_config ~name:"vm0"))
  in
  check_bool "bm loaded whole image" true (bm.Boot.bytes_loaded = Image.total_boot_bytes Image.centos7);
  check_bool "vm loaded whole image" true (vm.Boot.bytes_loaded = bm.Boot.bytes_loaded);
  check_bool "bm boots in seconds" true (bm.Boot.total_ns < Simtime.sec 10.0);
  check_bool "vm boots in seconds" true (vm.Boot.total_ns < Simtime.sec 10.0);
  (* vm probe traps cost 10us/access vs bm 1.6us/access *)
  check_bool "vm probe slower than bm probe" true (vm.Boot.probe_ns > bm.Boot.probe_ns)

(* Per-request timings through one pair of guests on datapath [dp]:
   six kernel-path UDP ping-pongs, an 8-packet back-to-back burst
   echoed back (arrival offsets), three 4 KiB read/write pairs, then
   four concurrent reads (completion order). Printed with %h, so any
   moved event in either backend shows. *)
let datapath_timings ?faults sub dp =
  let module Tb = Bm_workload.Testbed in
  let tb = Tb.make ~seed:2020 ?faults () in
  let sim = tb.Tb.sim in
  let a, b =
    match sub with
    | `Bm ->
      let server = Tb.bm_server tb in
      let prov name = Result.get_ok (Bm_hypervisor.provision server ~name ~datapath:dp ()) in
      let a = prov "a" in
      (a, prov "b")
    | `Vm ->
      let host = Tb.vm_host tb in
      let mk name =
        Kvm.create_vm host { (Kvm.default_config ~name) with vcpus = 16; datapath = dp }
      in
      let a = mk "a" in
      (a, mk "b")
  in
  let out = Buffer.create 512 in
  let pkt ~id ~src ~dst ~sent_at =
    Packet.make ~id ~src ~dst ~size:(64 + Packet.udp_header_bytes) ~protocol:Packet.Udp ~sent_at ()
  in
  b.Instance.set_rx_handler (fun p ->
      ignore
        (b.Instance.send
           (pkt ~id:p.Packet.id ~src:b.Instance.endpoint ~dst:p.Packet.src
              ~sent_at:p.Packet.sent_at)));
  let on_pong = ref (fun (_ : Packet.t) -> ()) in
  a.Instance.set_rx_handler (fun p -> !on_pong p);
  let blk_out op r =
    match r with
    | Ok lat -> Printf.bprintf out " %s %h" op lat
    | Error `Limited -> Printf.bprintf out " %s limited" op
    | Error `Busy -> Printf.bprintf out " %s busy" op
    | Error `Rejected -> Printf.bprintf out " %s rejected" op
  in
  let send i =
    ignore
      (a.Instance.send
         (pkt ~id:i ~src:a.Instance.endpoint ~dst:b.Instance.endpoint ~sent_at:(Sim.clock ())))
  in
  Sim.spawn sim (fun () ->
      Buffer.add_string out "  ping";
      for i = 1 to 6 do
        let iv = Sim.Ivar.create () in
        on_pong := (fun p -> if not (Sim.Ivar.is_filled iv) then Sim.Ivar.fill iv p);
        let t0 = Sim.clock () in
        send i;
        ignore (Sim.Ivar.read iv : Packet.t);
        Printf.bprintf out " %h" (Sim.clock () -. t0)
      done;
      Buffer.add_string out "\n  burst";
      let t0 = Sim.clock () and echoed = ref 0 and all = Sim.Ivar.create () in
      on_pong :=
        (fun p ->
          Printf.bprintf out " %d@%h" p.Packet.id (Sim.clock () -. t0);
          incr echoed;
          if !echoed = 8 then Sim.Ivar.fill all ());
      for i = 1 to 8 do
        send (100 + i)
      done;
      Sim.Ivar.read all;
      Buffer.add_string out "\n  blk";
      for _ = 1 to 3 do
        blk_out "r" (a.Instance.blk_try ~op:`Read ~bytes_:4096);
        blk_out "w" (a.Instance.blk_try ~op:`Write ~bytes_:4096)
      done;
      let left = ref 4 and all = Sim.Ivar.create () in
      for i = 1 to 4 do
        Sim.fork (fun () ->
            blk_out (Printf.sprintf "c%d" i) (a.Instance.blk_try ~op:`Read ~bytes_:4096);
            decr left;
            if !left = 0 then Sim.Ivar.fill all ())
      done;
      Sim.Ivar.read all;
      Printf.bprintf out "\n  end %h\n" (Sim.clock ()));
  Sim.run sim;
  Buffer.contents out

(* Every {bm, vm} x {vring, passthrough, sliced} cell, plus both vring
   pairs with backend crashes landing mid-burst and mid-blk (die, wait
   out the dead-time, respawn, rekick), and both vring pairs with one
   window each of the device-side faults: a DMA stall and a link retrain
   during the pings, a dropped mailbox write and a firmware wedge (reset
   and resync) during the block requests. *)
let golden_datapath () =
  let plan events =
    {
      Fault.seed = 0;
      horizon_ns = 2e6;
      events = List.map (fun (kind, at, duration_ns) -> { Fault.kind; at; duration_ns }) events;
    }
  in
  let crash =
    plan (List.map (fun at -> (Fault.Pmd_crash, at, 50_000.0)) [ 140_000.0; 400_000.0; 470_000.0 ])
  in
  let device =
    plan
      [
        (Fault.Dma_stall, 30_000.0, 20_000.0);
        (Fault.Link_down, 75_000.0, 30_000.0);
        (Fault.Mailbox_drop, 300_000.0, 10_000.0);
        (Fault.Firmware_wedge, 520_000.0, 100_000.0);
      ]
  in
  let cell ?(tag = "") ?faults label sub dp =
    Printf.sprintf "%s %s%s\n%s" label (Bm_iobond.Vf.datapath_name dp) tag
      (datapath_timings ?faults sub dp)
  in
  let vring = Bm_iobond.Vf.Vring in
  let faulted tag faults = [ cell ~tag ~faults "bm" `Bm vring; cell ~tag ~faults "vm" `Vm vring ] in
  String.concat ""
    (List.concat_map (fun dp -> [ cell "bm" `Bm dp; cell "vm" `Vm dp ]) Bm_iobond.Vf.all_datapaths
    @ faulted " pmd_crash" crash
    @ faulted " device_faults" device)

let test_golden_datapath () =
  Alcotest.(check string)
    "golden datapath timings" Golden_datapath.timings_seed2020 (golden_datapath ())

let suites =
  [
    ( "hyp.vmexit",
      [
        Alcotest.test_case "costs and counters" `Quick test_vmexit_costs;
        Alcotest.test_case "ept overhead shape" `Quick test_ept_overhead_shape;
        Alcotest.test_case "nested factors" `Quick test_nested_factors;
      ] );
    ( "hyp.preempt",
      [
        Alcotest.test_case "shared worse than exclusive" `Quick test_preempt_shared_worse_than_exclusive;
        Alcotest.test_case "fig1 calibration" `Quick test_preempt_fig1_calibration;
      ] );
    ( "hyp.fleet",
      [
        Alcotest.test_case "table2 exit survey" `Quick test_fleet_table2;
        Alcotest.test_case "fig1 windows" `Quick test_fleet_fig1_windows;
      ] );
    ( "hyp.kvm",
      [
        Alcotest.test_case "provisioning capacity" `Quick test_kvm_provisioning_capacity;
        Alcotest.test_case "network loopback" `Quick test_kvm_network_loopback;
        Alcotest.test_case "blk latency" `Quick test_kvm_blk_latency_positive;
        Alcotest.test_case "probe costs exits" `Quick test_kvm_probe_costs_exits;
        Alcotest.test_case "exec dilated" `Quick test_kvm_exec_slower_than_native;
        Alcotest.test_case "nested dilation" `Quick test_kvm_nested_dilation;
      ] );
    ( "hyp.bm",
      [
        Alcotest.test_case "provision lifecycle" `Quick test_bm_provision_lifecycle;
        Alcotest.test_case "board cap" `Quick test_bm_board_cap;
        Alcotest.test_case "network between guests" `Quick test_bm_network_between_guests;
        Alcotest.test_case "blk faster than vm" `Quick test_bm_blk_faster_than_vm;
        Alcotest.test_case "native exec speed" `Quick test_bm_exec_native_speed;
        Alcotest.test_case "probe via IO-Bond" `Quick test_bm_probe_uses_iobond_cost;
        Alcotest.test_case "firmware signature gate" `Quick test_firmware_signature_gate;
        Alcotest.test_case "boot same image on both" `Quick test_boot_same_image_both_substrates;
      ] );
    ("hyp.datapath", [ Alcotest.test_case "golden timings" `Quick test_golden_datapath ]);
  ]

(* Lock-holder preemption (§2.1). *)
let test_lhp_vm_worse_than_bm () =
  let run make =
    let w = make_world ~seed:51 () in
    let inst = make w in
    let lock = Spinlock.create inst in
    let done_ = ref 0 in
    for _ = 1 to 8 do
      Sim.spawn w.sim (fun () ->
          for _ = 1 to 500 do
            Spinlock.critical_section lock ~work_ns:2_000.0
          done;
          incr done_)
    done;
    Sim.run w.sim;
    Alcotest.(check int) "all threads finished" 8 !done_;
    Spinlock.stats lock
  in
  let bm =
    run (fun w ->
        let server = Bm_hypervisor.create_server w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
        Result.get_ok (Bm_hypervisor.provision server ~name:"g" ()))
  in
  let vm =
    run (fun w ->
        let host = Kvm.create_host w.sim w.rng ~fabric:w.fabric ~storage:w.storage () in
        Kvm.create_vm host
          { (Kvm.default_config ~name:"vm") with pinning = Preempt.Shared; host_load = 0.8 })
  in
  Alcotest.(check int) "same acquisitions" bm.Spinlock.acquisitions vm.Spinlock.acquisitions;
  (* The shared vm's holder gets preempted mid-section. Baseline
     contention dominates the mean, so LHP shows in the tail: the worst
     vm wait covers a whole preemption slice, several times anything a
     bare-metal waiter ever sees. *)
  Alcotest.(check bool) "vm spins at least as much" true
    (vm.Spinlock.total_spin_ns > bm.Spinlock.total_spin_ns);
  Alcotest.(check bool) "vm worst wait >= 3x bm (a steal slice)" true
    (vm.Spinlock.worst_wait_ns > 3.0 *. bm.Spinlock.worst_wait_ns)

let lhp_suites =
  [
    ( "hyp.lhp",
      [
        Alcotest.test_case "lock-holder preemption" `Quick test_lhp_vm_worse_than_bm;
      ] );
  ]

let suites = suites @ lhp_suites

(* Guest kernel catalogue. *)
let test_kernel_catalogue () =
  Alcotest.(check bool) "eval kernel is the default" true
    (Guest_os.for_kernel "3.10.0-514.26.2.el7" = Some Guest_os.default);
  Alcotest.(check bool) "unknown kernel" true (Guest_os.for_kernel "2.6.32" = None);
  (* Mitigations made syscalls costlier after 2018... *)
  Alcotest.(check bool) "4.19 syscall costlier" true
    (Guest_os.ubuntu18_4_19.Guest_os.syscall_ns > Guest_os.centos7_3_10.Guest_os.syscall_ns);
  (* ...while the block path kept getting cheaper. *)
  Alcotest.(check bool) "blk path monotone cheaper" true
    (Guest_os.modern_5_4.Guest_os.blk_submit_ns < Guest_os.ubuntu18_4_19.Guest_os.blk_submit_ns
    && Guest_os.ubuntu18_4_19.Guest_os.blk_submit_ns < Guest_os.centos7_3_10.Guest_os.blk_submit_ns)

let kernel_suites =
  [ ("hyp.kernels", [ Alcotest.test_case "kernel catalogue" `Quick test_kernel_catalogue ]) ]

let suites = suites @ kernel_suites
