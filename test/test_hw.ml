(* Tests for the hardware substrate models. *)

open Bm_engine
open Bm_hw

let check_float = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  Sim.spawn sim (fun () -> result := Some (f sim));
  Sim.run sim;
  match !result with Some v -> v | None -> Alcotest.fail "simulation did not finish"

(* ------------------------------------------------------------------ *)
(* Cpu_spec *)

let test_spec_catalogue () =
  check_bool "catalogue non-trivial" true (List.length Cpu_spec.all >= 8);
  (match Cpu_spec.find "Xeon E5-2682 v4" with
  | Some spec ->
    check_int "cores" 16 spec.Cpu_spec.cores;
    check_int "threads" 32 spec.Cpu_spec.threads
  | None -> Alcotest.fail "E5-2682 v4 missing");
  Alcotest.(check (option reject)) "unknown absent" None (Cpu_spec.find "Pentium 60")

let test_spec_single_thread_ratios () =
  (* §4.2: E3-1240 v6 is 31% faster single-core than E5-2682 v4;
     §1: i7-8086K is 1.6x of E5-2699 v4. *)
  let mark spec = spec.Cpu_spec.single_thread_mark in
  check_float "E3 vs E5-2682" 1.31 (mark Cpu_spec.xeon_e3_1240_v6 /. mark Cpu_spec.xeon_e5_2682_v4);
  check_bool "i7 vs E5-2699 ~1.6x" true
    (mark Cpu_spec.core_i7_8086k /. mark Cpu_spec.xeon_e5_2699_v4 >= 1.55)

let test_spec_mem_bw () =
  (* 4 channels x 2400 MT/s x 8 B = 76.8 GB/s *)
  check_float "E5-2682 peak bw" 76.8 (Cpu_spec.peak_mem_bw_gb_s Cpu_spec.xeon_e5_2682_v4)

(* ------------------------------------------------------------------ *)
(* Cores *)

let test_cores_execution_time () =
  let elapsed =
    in_sim (fun sim ->
        let cores = Cores.create sim ~spec:Cpu_spec.xeon_e5_2682_v4 () in
        let t0 = Sim.clock () in
        Cores.execute_ns cores 1e9;
        Sim.clock () -. t0)
  in
  check_float "1s job" 1e9 elapsed

let test_cores_contention () =
  let elapsed =
    in_sim (fun sim ->
        let cores = Cores.create sim ~spec:Cpu_spec.xeon_e5_2682_v4 ~threads:2 () in
        let done_ = Sim.Ivar.create () in
        let remaining = ref 4 in
        for _ = 1 to 4 do
          Sim.fork (fun () ->
              Cores.execute_ns cores 100.0;
              decr remaining;
              if !remaining = 0 then Sim.Ivar.fill done_ ())
        done;
        Sim.Ivar.read done_;
        Sim.clock ())
  in
  (* 4 jobs x 100ns on 2 threads = 200ns *)
  check_float "two waves" 200.0 elapsed

let test_cores_utilization () =
  in_sim (fun sim ->
      let cores = Cores.create sim ~spec:Cpu_spec.xeon_e5_2682_v4 ~threads:1 () in
      Cores.execute_ns cores 500.0;
      Sim.delay 500.0;
      check_float "50% busy" 0.5 (Cores.utilization cores ~now:(Sim.clock ())))

(* ------------------------------------------------------------------ *)
(* Memory *)

(* The model reaches 85% of the peak in aggregate and 14 GB/s per
   stream; times are checked to the nanosecond. *)
let check_ns = Alcotest.(check (float 1.0))

let test_memory_single_stream () =
  let elapsed =
    in_sim (fun sim ->
        let mem = Memory.create sim ~peak_gb_s:80.0 in
        let t0 = Sim.clock () in
        Memory.transfer mem ~bytes_:14e9;
        Sim.clock () -. t0)
  in
  (* Single stream capped at 14 GB/s: 14 GB in 1 s. *)
  check_ns "per-stream cap" 1e9 elapsed

let test_memory_fair_share () =
  let times =
    in_sim (fun sim ->
        let mem = Memory.create sim ~peak_gb_s:20.0 in
        let finished = ref [] in
        let done_ = Sim.Ivar.create () in
        for i = 1 to 2 do
          Sim.fork (fun () ->
              Memory.transfer mem ~bytes_:8.5e9;
              finished := (i, Sim.clock ()) :: !finished;
              if List.length !finished = 2 then Sim.Ivar.fill done_ ())
        done;
        Sim.Ivar.read done_;
        List.rev_map snd !finished)
  in
  (* Two 8.5 GB transfers sharing 17 GB/s finish together at t = 1s. *)
  List.iter (fun t -> check_ns "both at 1s" 1e9 t) times

let test_memory_latecomer () =
  (* Stream A (22.5 GB) starts alone at 14 GB/s; stream B (8.5 GB)
     joins at t=0.5s. From then both share 17 GB/s; B finishes at 1.5s,
     A has 7 GB left, runs at 14 GB/s again and finishes at 2.0s. *)
  let result =
    in_sim (fun sim ->
        let mem = Memory.create sim ~peak_gb_s:20.0 in
        let t_a = ref 0.0 and t_b = ref 0.0 in
        let done_ = Sim.Ivar.create () in
        Sim.fork (fun () ->
            Memory.transfer mem ~bytes_:22.5e9;
            t_a := Sim.clock ();
            if !t_b > 0.0 then Sim.Ivar.fill done_ ());
        Sim.fork (fun () ->
            Sim.delay 0.5e9;
            Memory.transfer mem ~bytes_:8.5e9;
            t_b := Sim.clock ();
            if !t_a > 0.0 then Sim.Ivar.fill done_ ());
        Sim.Ivar.read done_;
        (!t_a, !t_b))
  in
  let t_a, t_b = result in
  Alcotest.(check (float 1e3)) "B at 1.5s" 1.5e9 t_b;
  Alcotest.(check (float 1e3)) "A at 2.0s" 2.0e9 t_a

let test_memory_tax () =
  let elapsed =
    in_sim (fun sim ->
        let mem = Memory.create sim ~peak_gb_s:10.0 in
        Memory.set_tax mem 0.25;
        let t0 = Sim.clock () in
        Memory.transfer mem ~bytes_:8.5e9;
        Sim.clock () -. t0)
  in
  (* 8.5 GB/s with a 25% tax is 6.8 GB/s: 8.5 GB in 1.25 s. *)
  check_ns "25% tax" 1.25e9 elapsed

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~size_kb:64 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "first access misses" true (Cache.access c ~owner:1 0x1000 = `Miss);
  Alcotest.(check bool) "second access hits" true (Cache.access c ~owner:1 0x1000 = `Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~owner:1 0x103F = `Hit);
  Alcotest.(check bool) "next line misses" true (Cache.access c ~owner:1 0x1040 = `Miss)

let test_cache_lru_eviction () =
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  (* 1KB, 2 ways, 64B lines -> 8 sets. Fill one set's 2 ways, then a third
     tag evicts the LRU. *)
  let sets = 8 in
  let addr tag = tag * sets * 64 in
  ignore (Cache.access c ~owner:1 (addr 1));
  ignore (Cache.access c ~owner:1 (addr 2));
  ignore (Cache.access c ~owner:1 (addr 1));
  (* tag2 is now LRU *)
  ignore (Cache.access c ~owner:1 (addr 3));
  Alcotest.(check bool) "tag1 survives" true (Cache.access c ~owner:1 (addr 1) = `Hit);
  Alcotest.(check bool) "tag2 evicted" true (Cache.access c ~owner:1 (addr 2) = `Miss)

let test_cache_thrash_interference () =
  let c = Cache.create ~size_kb:256 ~ways:8 ~line_bytes:64 in
  (* Victim warms a working set and enjoys hits. *)
  let victim_ws = List.init 512 (fun i -> i * 64) in
  List.iter (fun a -> ignore (Cache.access c ~owner:1 a)) victim_ws;
  Cache.reset_stats c;
  List.iter (fun a -> ignore (Cache.access c ~owner:1 a)) victim_ws;
  check_float "victim alone hits" 1.0 (Cache.hit_ratio c ~owner:1);
  (* Attacker thrashes the whole cache; the victim's next pass misses. *)
  Cache.thrash c ~owner:2;
  Cache.reset_stats c;
  List.iter (fun a -> ignore (Cache.access c ~owner:1 a)) victim_ws;
  check_bool "victim hits destroyed" true (Cache.hit_ratio c ~owner:1 < 0.1);
  check_bool "attacker occupies cache" true (Cache.occupancy c ~owner:2 > 0.4)

let prop_cache_occupancy_sums_to_one =
  QCheck.Test.make ~name:"cache occupancies of all owners sum to ~1" ~count:50
    QCheck.(list_of_size (Gen.int_range 50 500) (pair (int_range 0 3) (int_range 0 100000)))
    (fun accesses ->
      let c = Cache.create ~size_kb:16 ~ways:4 ~line_bytes:64 in
      List.iter (fun (owner, addr) -> ignore (Cache.access c ~owner addr)) accesses;
      let total =
        List.fold_left (fun acc o -> acc +. Cache.occupancy c ~owner:o) 0.0 [ 0; 1; 2; 3 ]
      in
      Float.abs (total -. 1.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Tlb *)

let test_tlb_reach () =
  let tlb = Tlb.create () in
  check_float "reach 6MB" (1536.0 *. 4096.0) (Tlb.reach_bytes tlb);
  check_float "fits: no misses" 0.0 (Tlb.miss_rate tlb ~working_set_bytes:1e6 ~locality:0.0)

let test_tlb_virtualized_walk_costlier () =
  let tlb = Tlb.create () in
  let native = Tlb.walk_ns tlb ~virtualized:false in
  let virt = Tlb.walk_ns tlb ~virtualized:true in
  check_float "2D walk 6x native" 6.0 (virt /. native)

let test_tlb_overhead_grows_with_ws () =
  let tlb = Tlb.create () in
  let ov ws = Tlb.avg_overhead_ns tlb ~virtualized:true ~working_set_bytes:ws ~locality:0.5 in
  check_bool "monotone in ws" true (ov 1e7 < ov 1e8 && ov 1e8 < ov 1e9)

(* ------------------------------------------------------------------ *)
(* Pcie / Dma *)

let test_pcie_register_latency () =
  let elapsed =
    in_sim (fun sim ->
        let link = Pcie.x4 sim ~register_ns:800.0 in
        let t0 = Sim.clock () in
        Sim.await (Pcie.register_access link);
        Sim.clock () -. t0)
  in
  check_float "0.8us per access (FPGA)" 800.0 elapsed

let test_dma_bottleneck_rate () =
  let elapsed =
    in_sim (fun sim ->
        let guest_link = Pcie.x4 sim ~register_ns:800.0 in
        let base_link = Pcie.x8 sim ~register_ns:800.0 in
        let dma = Dma.create sim ~gbit_s:50.0 ~setup_ns:0.0 () in
        let t0 = Sim.clock () in
        Sim.await (Dma.copy dma ~src:guest_link ~dst:base_link ~bytes_:40_000);
        Sim.clock () -. t0)
  in
  (* Bottleneck is the x4 at 32 Gbit/s: 40kB = 10,000 ns. *)
  check_float "x4-bound copy" 10_000.0 elapsed;
  ()

let test_dma_engine_cap () =
  (* Two flows over distinct x4 links share the 50 Gbit/s engine: 2 x
     40kB = 80kB at 50 Gbit/s = 12.8 us (not 10 us as two free x4s
     would allow). *)
  let elapsed =
    in_sim (fun sim ->
        let base_link = Pcie.x8 sim ~register_ns:800.0 in
        let dma = Dma.create sim ~gbit_s:50.0 ~setup_ns:0.0 () in
        let done_ = Sim.Ivar.create () in
        let remaining = ref 2 in
        for _ = 1 to 2 do
          Sim.fork (fun () ->
              let link = Pcie.x4 sim ~register_ns:800.0 in
              Sim.await (Dma.copy dma ~src:link ~dst:base_link ~bytes_:40_000);
              decr remaining;
              if !remaining = 0 then Sim.Ivar.fill done_ ())
        done;
        Sim.Ivar.read done_;
        Sim.clock ())
  in
  check_bool "engine caps combined rate" true (elapsed >= 12_500.0)

(* A hop or copy that starts inside a fault window waits at the port
   (or doorbell) until the window closes, then takes its unloaded time:
   one stall counted, nothing lost. *)
let armed_window sim ~kind ~at ~duration_ns =
  let f =
    Fault.create sim
      { Fault.seed = 0; horizon_ns = 1e6; events = [ { Fault.kind; at; duration_ns } ] }
  in
  Fault.arm f;
  f

let test_pcie_link_down_stall () =
  let sim = Sim.create () in
  let metrics = Metrics.create () in
  let fault = armed_window sim ~kind:Fault.Link_down ~at:100.0 ~duration_ns:50_000.0 in
  let link = Pcie.x4 ~obs:(Obs.of_sim ~metrics sim) ~fault sim ~register_ns:800.0 in
  let finished = ref nan in
  Sim.spawn sim (fun () ->
      Sim.delay 1_000.0;
      Sim.await (Pcie.register_access link);
      finished := Sim.clock ());
  Sim.run sim;
  check_float "window close + one hop" (50_100.0 +. 800.0) !finished;
  check_float "one stall" 1.0 (Metrics.counter_value metrics "hw.pcie.link_stalls");
  check_float "the access went through" 1.0
    (Metrics.counter_value metrics "hw.pcie.register_accesses")

let test_dma_stall_window () =
  let sim = Sim.create () in
  let metrics = Metrics.create () in
  let fault = armed_window sim ~kind:Fault.Dma_stall ~at:100.0 ~duration_ns:20_000.0 in
  let src = Pcie.x4 sim ~register_ns:800.0 and dst = Pcie.x8 sim ~register_ns:800.0 in
  let dma = Dma.create ~obs:(Obs.of_sim ~metrics sim) ~fault sim ~gbit_s:50.0 ~setup_ns:300.0 () in
  let finished = ref nan in
  Sim.spawn sim (fun () ->
      Sim.delay 1_000.0;
      Sim.await (Dma.copy dma ~src ~dst ~bytes_:40_000);
      finished := Sim.clock ());
  Sim.run sim;
  (* Unloaded: 300 ns setup + 40 kB at the x4's 32 Gbit/s. *)
  check_float "window close + unloaded copy" (20_100.0 +. 10_300.0) !finished;
  check_float "one stall" 1.0 (Metrics.counter_value metrics "hw.dma.stalls");
  check_float "every byte copied" 40_000.0 (Dma.bytes_copied dma);
  check_float "src link carried it" 40_000.0 (Pcie.bytes_moved src);
  check_float "dst link carried it" 40_000.0 (Pcie.bytes_moved dst)

(* ------------------------------------------------------------------ *)
(* Power *)

let test_power_vm_server () =
  (* §3.5: vm-based server = dual 24-core (96HT) CPUs, 88HT sellable,
     ~3.06 W/vCPU. *)
  let components = [ Power.Cpu (Cpu_spec.xeon_platinum_8163, 2) ] in
  let w = Power.watts_per_vcpu ~components ~sellable_vcpus:88 in
  check_bool "close to paper's 3.06" true (Float.abs (w -. 3.06) < 0.8)

let test_power_bmhive_single_board () =
  (* Single 96HT board + FPGA + base CPU: paper says 3.17 W/vCPU. *)
  let components =
    [
      Power.Cpu (Cpu_spec.xeon_platinum_8163, 2);
      Power.Fpga 1;
      Power.Cpu (Cpu_spec.base_server_e5, 1);
    ]
  in
  let w = Power.watts_per_vcpu ~components ~sellable_vcpus:96 in
  check_bool "close to paper's 3.17" true (Float.abs (w -. 3.17) < 1.7);
  let vm_w = Power.watts_per_vcpu ~components:[ Power.Cpu (Cpu_spec.xeon_platinum_8163, 2) ] ~sellable_vcpus:88 in
  check_bool "bm slightly above vm" true (w > vm_w)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "hw.cpu_spec",
      [
        Alcotest.test_case "catalogue" `Quick test_spec_catalogue;
        Alcotest.test_case "single-thread ratios" `Quick test_spec_single_thread_ratios;
        Alcotest.test_case "memory bandwidth" `Quick test_spec_mem_bw;
      ] );
    ( "hw.cores",
      [
        Alcotest.test_case "execution time" `Quick test_cores_execution_time;
        Alcotest.test_case "contention" `Quick test_cores_contention;
        Alcotest.test_case "utilization" `Quick test_cores_utilization;
      ] );
    ( "hw.memory",
      [
        Alcotest.test_case "per-stream cap" `Quick test_memory_single_stream;
        Alcotest.test_case "fair share" `Quick test_memory_fair_share;
        Alcotest.test_case "latecomer dynamics" `Quick test_memory_latecomer;
        Alcotest.test_case "virtualization tax" `Quick test_memory_tax;
      ] );
    ( "hw.cache",
      [
        Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "thrash interference" `Quick test_cache_thrash_interference;
      ] );
    qsuite "hw.cache.prop" [ prop_cache_occupancy_sums_to_one ];
    ( "hw.tlb",
      [
        Alcotest.test_case "reach" `Quick test_tlb_reach;
        Alcotest.test_case "2D walk cost" `Quick test_tlb_virtualized_walk_costlier;
        Alcotest.test_case "overhead grows with ws" `Quick test_tlb_overhead_grows_with_ws;
      ] );
    ( "hw.pcie",
      [
        Alcotest.test_case "register latency" `Quick test_pcie_register_latency;
        Alcotest.test_case "link-down stall" `Quick test_pcie_link_down_stall;
      ] );
    ( "hw.dma",
      [
        Alcotest.test_case "bottleneck rate" `Quick test_dma_bottleneck_rate;
        Alcotest.test_case "engine caps aggregate" `Quick test_dma_engine_cap;
        Alcotest.test_case "dma_stall window" `Quick test_dma_stall_window;
      ] );
    ( "hw.power",
      [
        Alcotest.test_case "vm server W/vCPU" `Quick test_power_vm_server;
        Alcotest.test_case "bm-hive W/vCPU" `Quick test_power_bmhive_single_board;
      ] );
  ]
