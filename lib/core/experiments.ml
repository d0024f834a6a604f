open Bm_engine
open Bm_guest
open Bm_hyp
open Bm_workload

type outcome = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

type ctx = {
  seed : int;
  quick : bool;
  trace : Trace.t option;
  metrics : Metrics.t option;
  faults : Fault.plan option;
  topo : Bm_fabric.Topology.t option;
  shards : int;
  scenario : Scenario.spec option;
  policy : Bm_cloud.Policy.kind option;
  hosts : int option;
  guests : int option;
  tenants : int option;
  vfs : int option;
  datapath : Bm_iobond.Vf.datapath option;
}

let default_ctx =
  {
    seed = 2020;
    quick = false;
    trace = None;
    metrics = None;
    faults = None;
    topo = None;
    shards = 1;
    scenario = None;
    policy = None;
    hosts = None;
    guests = None;
    tenants = None;
    vfs = None;
    datapath = None;
  }

type spec = { id : string; title : string; paper_ref : string; run : ctx -> outcome }

let within ~tolerance ~target value =
  Float.abs (value -. target) /. Float.abs target <= tolerance

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let run_table1 _ =
  {
    id = "table1";
    title = "Table 1: comparison of three cloud services";
    header = [ "service"; "security"; "isolation"; "performance"; "density" ];
    rows = Comparison.rows ();
    notes = [ "Cells derived from model properties (see Bmhive.Comparison)." ];
  }

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let run_table2 { seed; quick; _ } =
  let vms = if quick then 30_000 else 300_000 in
  let rng = Rng.create ~seed in
  let s = Fleet.survey_exits rng ~vms in
  let row threshold paper measured =
    Report.check
      ~paper:(Report.pct paper)
      ~measured:(Report.pct measured)
      ~ok:(within ~tolerance:0.5 ~target:paper measured)
      [ threshold ]
  in
  {
    id = "table2";
    title = "Table 2: VM exits per second per vCPU across the fleet";
    header = [ "# of VM exits"; "paper"; "measured"; "band" ];
    rows =
      [
        row "> 10K/s" 0.0382 s.Fleet.over_10k;
        row "> 50K/s" 0.0037 s.Fleet.over_50k;
        row "> 100K/s" 0.0013 s.Fleet.over_100k;
      ];
    notes = [ Printf.sprintf "Monte-Carlo over %d VMs with the Fleet workload mixture." vms ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 1 *)

let run_fig1 { seed; quick; _ } =
  let vms = if quick then 2_000 else 20_000 in
  let hours = if quick then 8 else 24 in
  let rng = Rng.create ~seed in
  let windows = Fleet.survey_preemption rng ~vms ~hours in
  let rows =
    List.map
      (fun w ->
        [
          string_of_int w.Fleet.hour;
          Report.pct (Fleet.diurnal_load ~hour:w.Fleet.hour);
          Report.pct w.Fleet.shared_p99;
          Report.pct w.Fleet.shared_p999;
          Report.pct w.Fleet.exclusive_p99;
          Report.pct w.Fleet.exclusive_p999;
        ])
      windows
  in
  let max_of f = List.fold_left (fun acc w -> Float.max acc (f w)) 0.0 windows in
  let min_of f = List.fold_left (fun acc w -> Float.min acc (f w)) 1.0 windows in
  {
    id = "fig1";
    title = "Fig. 1: VM preemption percentiles over a day (20K VMs)";
    header = [ "hour"; "host load"; "shared p99"; "shared p99.9"; "excl p99"; "excl p99.9" ];
    rows;
    notes =
      [
        Printf.sprintf "shared p99 range %s..%s (paper ~2%%..4%%)"
          (Report.pct (min_of (fun w -> w.Fleet.shared_p99)))
          (Report.pct (max_of (fun w -> w.Fleet.shared_p99)));
        Printf.sprintf "shared p99.9 range %s..%s (paper ~2%%..10%%)"
          (Report.pct (min_of (fun w -> w.Fleet.shared_p999)))
          (Report.pct (max_of (fun w -> w.Fleet.shared_p999)));
        Printf.sprintf "exclusive ~%s / %s (paper ~0.2%% / 0.5%%)"
          (Report.pct (max_of (fun w -> w.Fleet.exclusive_p99)))
          (Report.pct (max_of (fun w -> w.Fleet.exclusive_p999)));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let run_table3 _ =
  let rows =
    List.map
      (fun i ->
        [
          i.Instances.name;
          i.Instances.cpu.Bm_hw.Cpu_spec.model;
          string_of_int i.Instances.vcpus;
          string_of_int i.Instances.mem_gb ^ "GB";
          Report.si i.Instances.net_pps ^ "pps / " ^ Report.f1 i.Instances.net_gbit_s ^ "Gbit";
          Report.si i.Instances.storage_iops ^ " IOPS";
          string_of_int i.Instances.max_boards_per_server;
        ])
      Instances.catalogue
  in
  {
    id = "table3";
    title = "Table 3: bare-metal instances available in the cloud";
    header = [ "instance"; "CPU"; "vCPU"; "memory"; "network limit"; "storage limit"; "boards/server" ];
    rows;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 7: SPEC CINT2006 *)

let run_fig7 { seed; trace; metrics; _ } =
  let spec_on make =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let inst = make tb in
    Spec_cint.run tb.Testbed.sim inst
  in
  let physical = spec_on (fun tb -> Testbed.physical tb) in
  let bm = spec_on (fun tb -> snd (Testbed.bm_guest tb)) in
  let vm = spec_on (fun tb -> snd (Testbed.vm_guest tb)) in
  let bm_rel = Spec_cint.relative ~baseline:physical bm in
  let vm_rel = Spec_cint.relative ~baseline:physical vm in
  let rows =
    List.map
      (fun (bench, bm_score) ->
        let vm_score = List.assoc bench vm_rel in
        [ bench; "1.000"; Printf.sprintf "%.3f" bm_score; Printf.sprintf "%.3f" vm_score ])
      bm_rel
  in
  let geo l = List.assoc "geomean" l in
  {
    id = "fig7";
    title = "Fig. 7: SPEC CINT2006 relative performance (physical = 1)";
    header = [ "benchmark"; "physical"; "bm-guest"; "vm-guest" ];
    rows;
    notes =
      [
        Printf.sprintf "geomean: bm %.3f (paper ~1.04), vm %.3f (paper ~0.96)" (geo bm_rel)
          (geo vm_rel);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 8: STREAM *)

let run_fig8 { seed; quick; trace; metrics; _ } =
  let elements = if quick then 20_000_000 else 200_000_000 in
  let runs = if quick then 3 else 10 in
  let stream_on make =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let inst = make tb in
    Stream.run tb.Testbed.sim inst ~elements ~runs ()
  in
  (* 16 STREAM threads stay on one NUMA node: single-socket baseline. *)
  let physical = stream_on (fun tb -> Testbed.physical ~sockets:1 tb) in
  let bm = stream_on (fun tb -> snd (Testbed.bm_guest tb)) in
  let vm = stream_on (fun tb -> snd (Testbed.vm_guest tb)) in
  let find kernel results = List.find (fun r -> r.Stream.kernel = kernel) results in
  let rows =
    List.map
      (fun kernel ->
        let p = find kernel physical and b = find kernel bm and v = find kernel vm in
        [
          Stream.kernel_name kernel;
          Report.f1 p.Stream.best_gb_s;
          Report.f1 b.Stream.best_gb_s;
          Report.f1 v.Stream.best_gb_s;
          Report.pct (v.Stream.best_gb_s /. b.Stream.best_gb_s);
        ])
      [ Stream.Copy; Stream.Scale; Stream.Add; Stream.Triad ]
  in
  {
    id = "fig8";
    title = "Fig. 8: STREAM 16-thread bandwidth (GB/s, best of runs)";
    header = [ "kernel"; "physical"; "bm-guest"; "vm-guest"; "vm/bm" ];
    rows;
    notes = [ "Paper: bm ~= physical; vm reaches ~98% of bm under load." ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 9: UDP PPS *)

let run_fig9 { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 40.0 else Simtime.ms 400.0 in
  let pps_of pair =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let src, dst = pair tb in
    Netperf.udp_pps tb.Testbed.sim ~src ~dst ~senders:2 ~batch:32 ~duration ()
  in
  let bm = pps_of (fun tb -> let _, a, b = Testbed.bm_pair tb in (a, b)) in
  let vm = pps_of (fun tb -> let _, a, b = Testbed.vm_pair tb in (a, b)) in
  let row name (r : Netperf.pps_result) =
    [
      name;
      Report.si r.Netperf.received_pps;
      Report.si r.Netperf.offered_pps;
      Report.si r.Netperf.jitter_pps;
    ]
  in
  {
    id = "fig9";
    title = "Fig. 9: UDP packet receive rate between co-resident guests";
    header = [ "guest"; "received PPS"; "offered PPS"; "jitter (sd)" ];
    rows = [ row "bm-guest" bm; row "vm-guest" vm ];
    notes =
      [
        "Paper: both exceed 3.2M PPS under the 4M limit; vm slightly ahead with less jitter.";
        Printf.sprintf "measured: bm %s, vm %s" (Report.si bm.Netperf.received_pps)
          (Report.si vm.Netperf.received_pps);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 10: latency *)

let run_fig10 { seed; quick; trace; metrics; _ } =
  let count = if quick then 400 else 2000 in
  let lat pair path =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let a, b = pair tb in
    Sockperf.ping_pong tb.Testbed.sim ~a ~b ~path ~count ()
  in
  let bm_pair tb = let _, a, b = Testbed.bm_pair tb in (a, b) in
  let vm_pair tb = let _, a, b = Testbed.vm_pair tb in (a, b) in
  let row name path =
    let bm = lat bm_pair path and vm = lat vm_pair path in
    [
      name;
      Report.f1 bm.Sockperf.avg_us;
      Report.f1 vm.Sockperf.avg_us;
      Report.f1 bm.Sockperf.p99_us;
      Report.f1 vm.Sockperf.p99_us;
    ]
  in
  {
    id = "fig10";
    title = "Fig. 10: 64B UDP / ping latency (us, one-way)";
    header = [ "path"; "bm avg"; "vm avg"; "bm p99"; "vm p99" ];
    rows =
      [
        row "sockperf (kernel)" Sockperf.Kernel;
        row "DPDK (bypass)" Sockperf.Dpdk;
        row "ICMP ping" Sockperf.Icmp;
      ];
    notes =
      [
        "Paper: kernel-stack latency almost identical; with DPDK the vm-guest is slightly";
        "better because the BM-Hive path crosses three PCIe buses.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 11: storage latency *)

let run_fig11 { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 300.0 else Simtime.sec 4.0 in
  let fio_on make pattern =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let inst = make tb in
    Fio.run tb.Testbed.sim (Rng.create ~seed:(seed + 7)) inst ~pattern ~duration ()
  in
  let bm p = fio_on (fun tb -> snd (Testbed.bm_guest tb)) p in
  let vm p = fio_on (fun tb -> snd (Testbed.vm_guest tb)) p in
  let row name pattern =
    let b = bm pattern and v = vm pattern in
    [
      name;
      Report.f1 b.Fio.avg_us;
      Report.f1 v.Fio.avg_us;
      Report.f1 (v.Fio.avg_us /. b.Fio.avg_us);
      Report.f1 b.Fio.p999_us;
      Report.f1 v.Fio.p999_us;
      Report.f1 (v.Fio.p999_us /. b.Fio.p999_us);
      Report.si b.Fio.iops;
      Report.si v.Fio.iops;
    ]
  in
  {
    id = "fig11";
    title = "Fig. 11: fio 4KB random storage latency (us) at the 25K IOPS limit";
    header =
      [ "pattern"; "bm avg"; "vm avg"; "vm/bm"; "bm p99.9"; "vm p99.9"; "vm/bm"; "bm IOPS"; "vm IOPS" ];
    rows = [ row "randread" Fio.Randread; row "randwrite" Fio.Randwrite ];
    notes =
      [
        "Paper: both saturate 25K IOPS; bm ~25% faster on average and ~3x better p99.9 (randread).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 12: NGINX *)

let nginx_rps_at tb ~server ~concurrency ~requests =
  let client = Testbed.client_box tb in
  Nginx.serve server ();
  Nginx.ab tb.Testbed.sim ~client ~server ~concurrency ~requests

let run_fig12 { seed; quick; trace; metrics; _ } =
  let concurrencies = if quick then [ 100; 400 ] else [ 50; 100; 200; 400; 800 ] in
  let per_level = if quick then 60 else 150 in
  let run_level make concurrency =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let server = make tb in
    nginx_rps_at tb ~server ~concurrency ~requests:(concurrency * per_level)
  in
  let rows =
    List.map
      (fun c ->
        let bm = run_level (fun tb -> snd (Testbed.bm_guest tb)) c in
        let vm = run_level (fun tb -> snd (Testbed.vm_guest tb)) c in
        [
          string_of_int c;
          Report.si bm.Nginx.rps;
          Report.si vm.Nginx.rps;
          Report.pct ((bm.Nginx.rps /. vm.Nginx.rps) -. 1.0);
          Report.f2 bm.Nginx.avg_ms;
          Report.f2 vm.Nginx.avg_ms;
        ])
      concurrencies
  in
  {
    id = "fig12";
    title = "Fig. 12: NGINX requests/s vs client concurrency (KeepAlive off)";
    header = [ "clients"; "bm RPS"; "vm RPS"; "bm adv"; "bm ms/req"; "vm ms/req" ];
    rows;
    notes =
      [ "Paper: bm serves ~50-60% more requests/s; ~30% shorter response time per request." ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 13/14: MariaDB *)

let sysbench_on ?trace ?metrics ~seed ~pattern ~duration make =
  let tb = Testbed.make ~seed ?trace ?metrics () in
  let server = make tb in
  let client = Testbed.client_box tb in
  Mariadb.serve server;
  Mariadb.sysbench tb.Testbed.sim ~client ~server ~pattern ~duration ()

let run_mariadb ~id ~title ~patterns ~paper_notes { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 200.0 else Simtime.sec 2.0 in
  let rows =
    List.map
      (fun pattern ->
        let bm =
          sysbench_on ?trace ?metrics ~seed ~pattern ~duration (fun tb ->
              snd (Testbed.bm_guest tb))
        in
        let vm =
          sysbench_on ?trace ?metrics ~seed ~pattern ~duration (fun tb ->
              snd (Testbed.vm_guest tb))
        in
        [
          Mariadb.pattern_name pattern;
          Report.si bm.Mariadb.qps;
          Report.si vm.Mariadb.qps;
          Report.pct ((bm.Mariadb.qps /. vm.Mariadb.qps) -. 1.0);
          Report.f2 bm.Mariadb.avg_ms;
          Report.f2 vm.Mariadb.avg_ms;
        ])
      patterns
  in
  {
    id;
    title;
    header = [ "pattern"; "bm QPS"; "vm QPS"; "bm adv"; "bm ms"; "vm ms" ];
    rows;
    notes = paper_notes;
  }

let run_fig13 = run_mariadb ~id:"fig13" ~title:"Fig. 13: MariaDB read-only (sysbench, 128 threads)"
    ~patterns:[ Mariadb.Read_only ]
    ~paper_notes:[ "Paper: bm 195K QPS vs vm 170K QPS (+14.7%)." ]

let run_fig14 =
  run_mariadb ~id:"fig14" ~title:"Fig. 14: MariaDB write-only and read/write (sysbench)"
    ~patterns:[ Mariadb.Write_only; Mariadb.Read_write ]
    ~paper_notes:[ "Paper: bm +42% on write-only, +55% on read/write mixed." ]

(* ------------------------------------------------------------------ *)
(* Fig. 15/16: Redis *)

let redis_on ?trace ?metrics ~seed make ~clients ~value_bytes ~requests =
  let tb = Testbed.make ~seed ?trace ?metrics () in
  let server = make tb in
  let client = Testbed.client_box tb in
  Redis_bench.serve server;
  Redis_bench.benchmark tb.Testbed.sim ~client ~server ~clients ~value_bytes ~requests ()

let run_fig15 { seed; quick; trace; metrics; _ } =
  let clients_list = if quick then [ 1000; 4000 ] else [ 1000; 2000; 4000; 7000; 10000 ] in
  let requests = if quick then 8_000 else 40_000 in
  let rows =
    List.map
      (fun clients ->
        let bm =
          redis_on ?trace ?metrics ~seed
            (fun tb -> snd (Testbed.bm_guest tb))
            ~clients ~value_bytes:64 ~requests
        in
        let vm =
          redis_on ?trace ?metrics ~seed
            (fun tb -> snd (Testbed.vm_guest tb))
            ~clients ~value_bytes:64 ~requests
        in
        [
          string_of_int clients;
          Report.si bm.Redis_bench.rps;
          Report.si vm.Redis_bench.rps;
          Report.pct ((bm.Redis_bench.rps /. vm.Redis_bench.rps) -. 1.0);
        ])
      clients_list
  in
  {
    id = "fig15";
    title = "Fig. 15: Redis requests/s vs number of clients (GET, 64B)";
    header = [ "clients"; "bm RPS"; "vm RPS"; "bm adv" ];
    rows;
    notes = [ "Paper: bm 20-40% more requests/s across 1K..10K clients." ];
  }

let run_fig16 { seed; quick; trace; metrics; _ } =
  let sizes = if quick then [ 4; 1024 ] else [ 4; 16; 64; 256; 1024; 4096 ] in
  let requests = if quick then 8_000 else 40_000 in
  let results =
    List.map
      (fun value_bytes ->
        let bm =
          redis_on ?trace ?metrics ~seed
            (fun tb -> snd (Testbed.bm_guest tb))
            ~clients:1000 ~value_bytes ~requests
        in
        let vm =
          redis_on ?trace ?metrics ~seed
            (fun tb -> snd (Testbed.vm_guest tb))
            ~clients:1000 ~value_bytes ~requests
        in
        (value_bytes, bm, vm))
      sizes
  in
  let rows =
    List.map
      (fun (value_bytes, bm, vm) ->
        [
          string_of_int value_bytes ^ "B";
          Report.si bm.Redis_bench.rps;
          Report.si vm.Redis_bench.rps;
          Report.pct ((bm.Redis_bench.rps /. vm.Redis_bench.rps) -. 1.0);
        ])
      results
  in
  (* Curve smoothness: mean absolute second difference over the mean —
     zero for any straight trend, large for a wobbly curve. *)
  let roughness take =
    let xs = List.map (fun (_, bm, vm) -> take bm vm) results in
    let rec second_diffs = function
      | a :: (b :: c :: _ as rest) -> Float.abs (a -. (2.0 *. b) +. c) :: second_diffs rest
      | _ -> []
    in
    let diffs = second_diffs xs in
    let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
    List.fold_left ( +. ) 0.0 diffs /. float_of_int (max 1 (List.length diffs)) /. mean
  in
  let bm_cv = roughness (fun bm _ -> bm.Redis_bench.rps) in
  let vm_cv = roughness (fun _ vm -> vm.Redis_bench.rps) in
  {
    id = "fig16";
    title = "Fig. 16: Redis requests/s vs value size (GET, 1000 clients)";
    header = [ "value"; "bm RPS"; "vm RPS"; "bm adv" ];
    rows;
    notes =
      [
        Printf.sprintf
          "curve roughness across sizes: bm %s, vm %s (paper: bm higher and more stable)"
          (Report.pct bm_cv) (Report.pct vm_cv);
      ];
  }

(* ------------------------------------------------------------------ *)
(* §2.3: nested virtualization *)

let run_sec2_3 { seed; quick; trace; metrics; _ } =
  let exec_time nested =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let host = Testbed.vm_host tb in
    let config = { (Kvm.default_config ~name:"vm") with Kvm.nested; host_load = 0.0 } in
    let vm = Kvm.create_vm host config in
    let elapsed = ref nan in
    Sim.spawn tb.Testbed.sim (fun () ->
        let t0 = Sim.clock () in
        vm.Instance.exec_ns 10e6;
        elapsed := Sim.clock () -. t0);
    Testbed.run tb;
    !elapsed
  in
  let io_lat nested =
    let tb = Testbed.make ~seed ~storage_kind:Bm_cloud.Blockstore.Local_ssd ?trace ?metrics () in
    let host = Testbed.vm_host tb in
    let config =
      {
        (Kvm.default_config ~name:"vm") with
        Kvm.nested;
        host_load = 0.0;
        blk_limits = Bm_cloud.Limits.unlimited_blk ();
      }
    in
    let vm = Kvm.create_vm host config in
    let duration = if quick then Simtime.ms 100.0 else Simtime.ms 500.0 in
    let r = Fio.run tb.Testbed.sim (Rng.create ~seed) vm ~jobs:16 ~iodepth:8 ~duration () in
    r.Fio.iops
  in
  let t_plain = exec_time false and t_nested = exec_time true in
  let iops_plain = io_lat false and iops_nested = io_lat true in
  let cpu_eff = t_plain /. t_nested in
  {
    id = "sec2_3";
    title = "S2.3: nested virtualization efficiency vs plain vm-guest";
    header = [ "metric"; "plain vm"; "nested vm"; "nested/plain"; "paper" ];
    rows =
      [
        [ "CPU work (same job)"; "1.00"; Report.f2 (t_nested /. t_plain); Report.pct cpu_eff; "~80%" ];
        [
          "fio IOPS (CPU-path bound)";
          Report.si iops_plain;
          Report.si iops_nested;
          Report.pct (iops_nested /. iops_plain);
          "~25% for I/O-intensive";
        ];
      ];
    notes =
      [
        Printf.sprintf "Mechanistic check: %.0f exits/s/vCPU -> %.0f%% efficiency"
          8_000.0
          (100.0 *. Nested.derived_cpu_efficiency ~exit_rate_per_s:8_000.0);
      ];
  }

(* ------------------------------------------------------------------ *)
(* §3.5: cost efficiency *)

let run_sec3_5 _ =
  let d = Cost_model.density () in
  let vm_w = Cost_model.vm_watts_per_vcpu () in
  let bm_w = Cost_model.bm_single_board_watts_per_vcpu () in
  {
    id = "sec3_5";
    title = "S3.5: cost efficiency (density, power, price)";
    header = [ "metric"; "vm-based server"; "BM-Hive"; "paper" ];
    rows =
      [
        [
          "sellable HT per rack slot";
          string_of_int d.Cost_model.vm_sellable_ht;
          string_of_int d.Cost_model.bm_sellable_ht;
          "88 vs 256";
        ];
        [ "TDP W/vCPU (96HT shape)"; Report.f2 vm_w; Report.f2 bm_w; "3.06 vs 3.17" ];
        [ "relative sell price"; "1.00"; Report.f2 Cost_model.price_ratio_bm_over_vm; "bm 10% lower" ];
      ];
    notes =
      [
        Printf.sprintf "density ratio %.2fx" (Cost_model.sellable_ht_per_rack_ratio ());
      ];
  }

(* ------------------------------------------------------------------ *)
(* §4.3 network: TCP throughput + unrestricted PPS *)

let run_sec4_3net { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 30.0 else Simtime.ms 300.0 in
  (* Cross-server throughput at the 10 Gbit/s cap. *)
  let tcp make =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let a, b = make tb in
    Netperf.tcp_stream tb.Testbed.sim ~src:a ~dst:b ~duration ()
  in
  let bm_cross tb =
    let s1 = Testbed.bm_server tb in
    let s2 = Testbed.bm_server tb in
    let g server name =
      match Bm_hyp.Bm_hypervisor.provision server ~name () with
      | Ok i -> i
      | Error e -> failwith e
    in
    (g s1 "a", g s2 "b")
  in
  let vm_cross tb =
    let h1 = Testbed.vm_host tb in
    let h2 = Testbed.vm_host tb in
    (Kvm.create_vm h1 (Kvm.default_config ~name:"a"), Kvm.create_vm h2 (Kvm.default_config ~name:"b"))
  in
  let bm_tp = tcp bm_cross in
  let vm_tp = tcp vm_cross in
  (* Unrestricted PPS on the bm pair. *)
  let tb = Testbed.make ~seed ?trace ?metrics () in
  let unlimited = Bm_cloud.Limits.unlimited_net () in
  let _, a, b = Testbed.bm_pair ~net_limits:unlimited tb in
  let free =
    Netperf.udp_pps tb.Testbed.sim ~src:a ~dst:b ~senders:12 ~batch:64
      ~duration:(if quick then Simtime.ms 20.0 else Simtime.ms 200.0)
      ()
  in
  {
    id = "sec4_3net";
    title = "S4.3: TCP throughput at the limit; unrestricted PPS";
    header = [ "metric"; "bm-guest"; "vm-guest"; "paper" ];
    rows =
      [
        [
          "TCP payload throughput (Gbit/s)";
          Report.f2 bm_tp.Netperf.payload_gbit_s;
          Report.f2 vm_tp.Netperf.payload_gbit_s;
          "9.6 vs 9.59";
        ];
        [ "unrestricted UDP PPS"; Report.si free.Netperf.received_pps; "-"; "16M (limit lifted)" ];
      ];
    notes =
      [
        Printf.sprintf "wire rates: bm %.2f / vm %.2f Gbit/s (the token bucket meters the wire)"
          bm_tp.Netperf.gbit_s vm_tp.Netperf.gbit_s;
      ];
  }

(* ------------------------------------------------------------------ *)
(* §4.3 storage: unrestricted local SSD *)

let run_sec4_3blk { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 100.0 else Simtime.ms 800.0 in
  let unlimited () = Bm_cloud.Limits.unlimited_blk () in
  let small make =
    let tb = Testbed.make ~seed ~storage_kind:Bm_cloud.Blockstore.Local_ssd ?trace ?metrics () in
    let inst = make tb in
    Fio.run tb.Testbed.sim (Rng.create ~seed) inst ~jobs:8 ~iodepth:2 ~block_bytes:4096
      ~pattern:Fio.Randread ~duration ()
  in
  let big make =
    let tb = Testbed.make ~seed ~storage_kind:Bm_cloud.Blockstore.Local_ssd ?trace ?metrics () in
    let inst = make tb in
    Fio.run tb.Testbed.sim (Rng.create ~seed) inst ~jobs:8 ~iodepth:4 ~block_bytes:(256 * 1024)
      ~pattern:Fio.Randread ~duration ()
  in
  let bm_mk tb = snd (Testbed.bm_guest ~blk_limits:(unlimited ()) tb) in
  let vm_mk tb = snd (Testbed.vm_guest ~blk_limits:(unlimited ()) tb) in
  let bm_small = small bm_mk and vm_small = small vm_mk in
  let bm_big = big bm_mk and vm_big = big vm_mk in
  let bw r block = r.Fio.iops *. float_of_int block /. 1e9 in
  {
    id = "sec4_3blk";
    title = "S4.3: unrestricted local-SSD performance";
    header = [ "metric"; "bm-guest"; "vm-guest"; "bm adv"; "paper" ];
    rows =
      [
        [
          "4KB randread IOPS";
          Report.si bm_small.Fio.iops;
          Report.si vm_small.Fio.iops;
          Report.pct ((bm_small.Fio.iops /. vm_small.Fio.iops) -. 1.0);
          "+50%";
        ];
        [
          "256KB read bandwidth (GB/s)";
          Report.f2 (bw bm_big (256 * 1024));
          Report.f2 (bw vm_big (256 * 1024));
          Report.pct ((bw bm_big (256 * 1024) /. bw vm_big (256 * 1024)) -. 1.0);
          "+100%";
        ];
        [ "4KB average latency (us)"; Report.f1 bm_small.Fio.avg_us; Report.f1 vm_small.Fio.avg_us; "-"; "bm ~60us" ];
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* §6: ASIC IO-Bond ablation *)

let run_sec6 { seed; quick; trace; metrics; _ } =
  let probe profile =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let _, inst = Testbed.bm_guest ~profile tb in
    let time = ref nan and accesses = ref 0 in
    Sim.spawn tb.Testbed.sim (fun () ->
        let t0 = Sim.clock () in
        (match inst.Instance.probe () with
        | Ok n -> accesses := n
        | Error e -> failwith e);
        time := Sim.clock () -. t0);
    Testbed.run tb;
    (!time, !accesses)
  in
  let lat profile =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let _, a, b = Testbed.bm_pair ~profile tb in
    let count = if quick then 300 else 1500 in
    (Sockperf.ping_pong tb.Testbed.sim ~a ~b ~path:Sockperf.Kernel ~count ()).Sockperf.avg_us
  in
  let fpga_probe, accesses = probe Bm_iobond.Profile.Fpga in
  let asic_probe, _ = probe Bm_iobond.Profile.Asic in
  let fpga_lat = lat Bm_iobond.Profile.Fpga in
  let asic_lat = lat Bm_iobond.Profile.Asic in
  {
    id = "sec6";
    title = "S6: IO-Bond FPGA vs projected ASIC";
    header = [ "metric"; "FPGA"; "ASIC"; "paper" ];
    rows =
      [
        [ "PCI register hop (us)"; "0.8"; "0.2"; "0.8 -> 0.2 (75% cut)" ];
        [
          Printf.sprintf "virtio probe, %d accesses (us)" accesses;
          Report.f1 (fpga_probe /. 1e3);
          Report.f1 (asic_probe /. 1e3);
          "4x faster config path";
        ];
        [ "UDP one-way latency (us)"; Report.f1 fpga_lat; Report.f1 asic_lat; "shorter data path" ];
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out. *)

(* How much does IO-Bond's register latency matter? Sweep the per-hop
   cost (the FPGA -> ASIC axis, extended) against the two things it
   touches: the emulated config path and end-to-end message latency. *)
let run_ablation_reg { seed; quick; trace; metrics; _ } =
  let count = if quick then 200 else 1000 in
  let probe_and_lat profile =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let _, inst = Testbed.bm_guest ~profile tb in
    let probe_us = ref nan in
    Sim.spawn tb.Testbed.sim (fun () ->
        let t0 = Sim.clock () in
        (match inst.Instance.probe () with Ok _ -> () | Error e -> failwith e);
        probe_us := (Sim.clock () -. t0) /. 1e3);
    Testbed.run tb;
    let tb2 = Testbed.make ~seed ?trace ?metrics () in
    let _, a, b = Testbed.bm_pair ~profile tb2 in
    let lat = Sockperf.ping_pong tb2.Testbed.sim ~a ~b ~path:Sockperf.Kernel ~count () in
    (!probe_us, lat.Sockperf.avg_us)
  in
  let fpga_probe, fpga_lat = probe_and_lat Bm_iobond.Profile.Fpga in
  let asic_probe, asic_lat = probe_and_lat Bm_iobond.Profile.Asic in
  {
    id = "ablation_reg";
    title = "Ablation: IO-Bond register-hop latency (config path vs data path)";
    header = [ "profile"; "hop (us)"; "virtio probe (us)"; "UDP one-way (us)" ];
    rows =
      [
        [ "FPGA"; "0.8"; Report.f1 fpga_probe; Report.f1 fpga_lat ];
        [ "ASIC"; "0.2"; Report.f1 asic_probe; Report.f1 asic_lat ];
      ];
    notes =
      [
        "The config path scales with the hop 1:1; the data path only carries the";
        "doorbell and tail-register hops, so cutting the hop 4x buys far less there —";
        "why the paper runs production on the cheap FPGA.";
      ];
  }

(* How big must the DMA engine be? The paper picked 50 Gbit/s; sweep it
   against unrestricted guest throughput. *)
let run_ablation_dma { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 15.0 else Simtime.ms 80.0 in
  let tput dma_gbit_s =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let server =
      Bm_hyp.Bm_hypervisor.create_server ~obs:tb.Testbed.obs tb.Testbed.sim tb.Testbed.rng
        ~fabric:tb.Testbed.fabric ~storage:tb.Testbed.storage ~dma_gbit_s ()
    in
    let unlimited = Bm_cloud.Limits.unlimited_net () in
    let g name =
      match Bm_hyp.Bm_hypervisor.provision server ~name ~net_limits:unlimited () with
      | Ok i -> i
      | Error e -> failwith e
    in
    let a = g "a" and b = g "b" in
    let r =
      Netperf.tcp_stream tb.Testbed.sim ~src:a ~dst:b ~connections:32
        ~message_bytes:8192 ~duration ()
    in
    r.Netperf.gbit_s
  in
  let rows =
    List.map
      (fun g -> [ Printf.sprintf "%.0f Gbit/s" g; Report.f2 (tput g) ])
      [ 12.5; 25.0; 50.0; 100.0 ]
  in
  {
    id = "ablation_dma";
    title = "Ablation: IO-Bond DMA engine sizing vs unrestricted guest throughput";
    header = [ "engine"; "achieved wire Gbit/s" ];
    rows;
    notes =
      [
        "Throughput tracks the engine until the x4 device links (32 Gbit/s each, x8";
        "uplink) take over — 50 Gbit/s is the knee, matching the paper's choice.";
      ];
  }

(* How much do batched doorbells/PMD bursts buy? Sweep the burst size the
   guest stack hands to virtio. *)
let run_ablation_batch { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 15.0 else Simtime.ms 80.0 in
  let pps batch =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let _, a, b = Testbed.bm_pair ~net_limits:(Bm_cloud.Limits.unlimited_net ()) tb in
    let r = Netperf.udp_pps tb.Testbed.sim ~src:a ~dst:b ~senders:8 ~batch ~duration () in
    r.Netperf.received_pps
  in
  let rows =
    List.map (fun b -> [ string_of_int b; Report.si (pps b) ]) [ 1; 4; 16; 64 ]
  in
  {
    id = "ablation_batch";
    title = "Ablation: PMD/driver burst size vs unrestricted PPS";
    header = [ "burst"; "received PPS" ];
    rows;
    notes =
      [
        "Small bursts pay the per-chain DMA setup and doorbell amortisation; the";
        "multi-MPPS results of S4.3 need the batching every real PMD path uses.";
      ];
  }

(* S6's offload plan: with IO-Bond classifying flows, known traffic
   bypasses the bm-hypervisor's PMD entirely. Measure PPS and base-core
   utilization with and without it. *)
let run_ablation_offload { seed; quick; trace; metrics; _ } =
  let duration = if quick then Simtime.ms 15.0 else Simtime.ms 80.0 in
  let run offload =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let server =
      Bm_hyp.Bm_hypervisor.create_server ~obs:tb.Testbed.obs tb.Testbed.sim tb.Testbed.rng
        ~fabric:tb.Testbed.fabric ~storage:tb.Testbed.storage ()
    in
    let unlimited = Bm_cloud.Limits.unlimited_net () in
    let g name =
      match Bm_hyp.Bm_hypervisor.provision server ~name ~net_limits:unlimited ~offload () with
      | Ok i -> i
      | Error e -> failwith e
    in
    let a = g "a" and b = g "b" in
    let r = Netperf.udp_pps tb.Testbed.sim ~src:a ~dst:b ~senders:10 ~batch:64 ~duration () in
    let base_util =
      Bm_hw.Cores.utilization (Bm_hyp.Bm_hypervisor.base_cores server)
        ~now:(Sim.now tb.Testbed.sim)
    in
    let hit_rate =
      match Bm_hyp.Bm_hypervisor.offload_table server ~name:"a" with
      | Some ot ->
        let total = Bm_iobond.Offload.hits ot + Bm_iobond.Offload.misses ot in
        if total = 0 then 0.0
        else float_of_int (Bm_iobond.Offload.hits ot) /. float_of_int total
      | None -> 0.0
    in
    (r.Netperf.received_pps, base_util, hit_rate)
  in
  let pps_off, util_off, _ = run false in
  let pps_on, util_on, hit_rate = run true in
  {
    id = "ablation_offload";
    title = "Ablation: IO-Bond flow offload (S6 plan) vs PMD-only backend";
    header = [ "backend"; "received PPS"; "base-core util"; "flow hit rate" ];
    rows =
      [
        [ "PMD only (deployed)"; Report.si pps_off; Report.pct util_off; "-" ];
        [ "IO-Bond offload (S6)"; Report.si pps_on; Report.pct util_on; Report.pct hit_rate ];
      ];
    notes =
      [
        "Offloaded flows skip the bm-hypervisor's per-packet CPU: the base server";
        "could use a lower-cost CPU, which is exactly the stated motivation in S6.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Availability under injected faults *)

(* [workers] guest fibers issue sequential 4 KiB reads until the plan
   horizon, then the run drains to quiescence, so every request issued
   before the horizon completes. Completion times, ascending. *)
let read_stream tb inst ~workers ~horizon_ns =
  let completions = ref [] in
  for _ = 1 to workers do
    Sim.spawn tb.Testbed.sim (fun () ->
        while Sim.clock () < horizon_ns do
          ignore (inst.Instance.blk ~op:`Read ~bytes_:4096);
          completions := Sim.clock () :: !completions
        done)
  done;
  Testbed.run tb;
  List.sort compare !completions

let gaps_of = function
  | [] | [ _ ] -> []
  | first :: rest ->
    let rec go prev acc = function
      | [] -> List.rev acc
      | x :: tl -> go x ((x -. prev) :: acc) tl
    in
    go first [] rest

let percentile xs p =
  match xs with
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Time to recover from one fault event: the delay from the window
   opening to the next completion the guest observes. *)
let mttr_of (plan : Fault.plan) completions =
  List.filter_map
    (fun (e : Fault.event) ->
      List.find_opt (fun c -> c >= e.Fault.at) completions
      |> Option.map (fun c -> c -. e.Fault.at))
    plan.Fault.events

let run_availability { seed; quick; trace; metrics; faults; _ } =
  let workers = if quick then 2 else 4 in
  let plan =
    match faults with
    | Some p -> p
    | None ->
      (* The recoverable kinds; Server_failure is the control plane's
         problem and is covered by the evacuation table below. *)
      Fault.make_plan ~seed
        [
          (Fault.Link_down, 2);
          (Fault.Dma_stall, 2);
          (Fault.Mailbox_drop, 2);
          (Fault.Firmware_wedge, 1);
          (Fault.Pmd_crash, 1);
        ]
  in
  let horizon = plan.Fault.horizon_ns in
  let run_bm ?faults () =
    let tb = Testbed.make ~seed ?trace ?metrics ?faults () in
    let _server, inst = Testbed.bm_guest tb in
    read_stream tb inst ~workers ~horizon_ns:horizon
  in
  let run_vm ?faults () =
    let tb = Testbed.make ~seed ?trace ?metrics ?faults () in
    let _host, inst = Testbed.vm_guest tb in
    read_stream tb inst ~workers ~horizon_ns:horizon
  in
  let clean_bm = run_bm () in
  let clean_vm = run_vm () in
  let goodput fault clean =
    float_of_int (List.length fault) /. float_of_int (max 1 (List.length clean))
  in
  (* One row per fault kind present in the plan: a fresh testbed runs
     the same workload under just that kind's events, so the recovery
     cost of each mechanism is visible in isolation. *)
  let kinds =
    List.filter
      (fun k -> List.exists (fun (e : Fault.event) -> e.Fault.kind = k) plan.Fault.events)
      Fault.all_kinds
  in
  let kind_rows =
    List.map
      (fun kind ->
        let sub =
          {
            plan with
            Fault.events =
              List.filter (fun (e : Fault.event) -> e.Fault.kind = kind) plan.Fault.events;
          }
        in
        let completions = run_bm ~faults:sub () in
        let gaps = gaps_of completions in
        [
          Fault.kind_name kind;
          string_of_int (List.length sub.Fault.events);
          Report.f1 (mean (mttr_of sub completions) /. 1e3);
          Report.f1 (percentile gaps 0.99 /. 1e3);
          Report.f1 (percentile gaps 1.0 /. 1e3);
          Report.pct (goodput completions clean_bm);
        ])
      kinds
  in
  (* The full plan at once, bm vs vm: the paper's density argument only
     holds if a board full of faults degrades no worse than a host. *)
  let fault_bm = run_bm ~faults:plan () in
  let fault_vm = run_vm ~faults:plan () in
  let combined_row name fault clean =
    let gaps = gaps_of fault in
    [
      name;
      string_of_int (List.length plan.Fault.events);
      Report.f1 (mean (mttr_of plan fault) /. 1e3);
      Report.f1 (percentile gaps 0.99 /. 1e3);
      Report.f1 (percentile gaps 1.0 /. 1e3);
      Report.pct (goodput fault clean);
    ]
  in
  (* Base-server failure: measure the blackout a surviving board's
     live migration would pay, for the notes below. *)
  let live_blackout_ns =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let _server, inst = Testbed.bm_guest tb in
    let stats = ref None in
    Sim.spawn tb.Testbed.sim (fun () ->
        match Live_migration.inject tb.Testbed.sim (Rng.split tb.Testbed.rng) inst with
        | Error _ -> ()
        | Ok injected -> (
          match Live_migration.migrate injected ~dirty_rate_gb_s:1.0 ~mem_gb:16 () with
          | Error _ -> ()
          | Ok s -> stats := Some s.Live_migration.blackout_ns));
    Testbed.run tb;
    !stats
  in
  {
    id = "availability";
    title = "Availability: MTTR, blackout and goodput under injected faults";
    header = [ "fault plan"; "events"; "avg MTTR (us)"; "p99 gap (us)"; "max gap (us)"; "goodput" ];
    rows =
      kind_rows
      @ [
          combined_row "all faults (bm-guest)" fault_bm clean_bm;
          combined_row "all faults (vm-guest)" fault_vm clean_vm;
        ];
    notes =
      [
        Printf.sprintf "plan: %d events over %.1f ms (seed %d); goodput = completions vs clean run"
          (List.length plan.Fault.events) (horizon /. 1e6) plan.Fault.seed;
        (match live_blackout_ns with
        | Some b ->
          Printf.sprintf
            "server failure: surviving boards live-migrate with %.1f ms blackout (S6 prototype);"
            (b /. 1e6)
        | None -> "server failure: live migration unavailable;");
        "dead boards evacuate via the control plane -- see the evacuation experiment.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Evacuation after a base-server failure *)

let run_evacuation _ =
  let open Bm_cloud in
  let strategies =
    [
      (Control_plane.First_fit, "first-fit");
      (Control_plane.Best_fit, "best-fit");
      (Control_plane.Spread, "spread");
    ]
  in
  let rows =
    List.map
      (fun (strategy, label) ->
        (* A small mixed fleet: the failed base holds four bm-guests;
           the rest of the fleet has two spare boards and one
           virtualization server, so evacuation must split victims
           across the bm fleet and the cold-migration path. *)
        let cp = Control_plane.create () in
        let victim_server =
          Control_plane.add_server cp (Control_plane.Bm_server { boards = 4; board_threads = 16 })
        in
        let _spare =
          Control_plane.add_server cp (Control_plane.Bm_server { boards = 2; board_threads = 16 })
        in
        let _vm =
          Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 })
        in
        let image = Image.centos7 in
        for i = 0 to 3 do
          match
            Control_plane.place cp
              ~name:(Printf.sprintf "bm%d" i)
              ~vcpus:16 ~prefer:Control_plane.Bare_metal ~image ()
          with
          | Ok _ -> ()
          | Error e -> failwith e
        done;
        let outcomes = Control_plane.evacuate cp ~server:victim_server ~strategy () in
        let count p = List.length (List.filter p outcomes) in
        let to_bm =
          count (function
            | _, Ok { Control_plane.substrate = Control_plane.Bare_metal; _ } -> true
            | _ -> false)
        and to_vm =
          count (function
            | _, Ok { Control_plane.substrate = Control_plane.Virtual; _ } -> true
            | _ -> false)
        and stranded = count (function _, Error _ -> true | _ -> false) in
        [
          label;
          string_of_int (List.length outcomes);
          string_of_int to_bm;
          string_of_int to_vm;
          string_of_int stranded;
        ])
      strategies
  in
  {
    id = "evacuation";
    title = "Evacuation: re-placing victims of a base-server failure";
    header = [ "strategy"; "victims"; "-> bm board"; "-> vm (cold)"; "stranded" ];
    rows;
    notes =
      [
        "Fleet: failed base (4 boards, all sold) + spare base (2 boards) + 1 vm server.";
        "Victims re-place bare-metal first; overflow cold-migrates to the vm substrate (S3.1).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Overload: offered load beyond the Table 3 limits, bounded vs blocking *)

(* Sweep offered load from 0.5x to 4x of the paper's rate limits (4M PPS
   / 10 Gbit/s network, 25K IOPS / 300 MB/s storage) with an open-loop
   generator. "blocking" is the legacy admission everywhere: limiters
   queue into token-bucket debt, so overload turns into unbounded
   waiting. "bounded" turns on the overload controls this repo adds:
   shedding limiters and drop-tail backlogs. Either way the limiters
   hold storage to the IOPS ceiling, so the blockstore's admission
   queue never fills. The acceptance shape is the hockey stick —
   bounded goodput stays at the ceiling with flat latency while
   blocking latency diverges with the backlog. *)
let run_overload { seed; quick; trace; metrics; faults; _ } =
  let open Bm_cloud in
  let net_duration = if quick then Simtime.ms 8.0 else Simtime.ms 60.0 in
  let blk_duration = if quick then Simtime.ms 40.0 else Simtime.ms 250.0 in
  let multipliers = [ 0.5; 1.0; 2.0; 4.0 ] in
  let net_ceiling = 4e6 and blk_ceiling = 25e3 in
  let policy_name bounded = if bounded then "bounded" else "blocking" in
  let kind_name = function `Bm -> "bm" | `Vm -> "vm" in
  let net_run ?faults kind bounded mult =
    let policy = if bounded then Limits.Shed else Limits.Block in
    let limits = Limits.cloud_net ~policy () in
    let tb = Testbed.make ~seed ?trace ?metrics ?faults () in
    let src, dst =
      match kind with
      | `Bm ->
        let _, a, b = Testbed.bm_pair ~net_limits:limits tb in
        (a, b)
      | `Vm ->
        let _, a, b = Testbed.vm_pair ~net_limits:limits tb in
        (a, b)
    in
    Overload.udp_flood tb.Testbed.sim ~src ~dst ~offered_pps:(mult *. net_ceiling)
      ~duration:net_duration ()
  in
  let blk_run ?faults kind bounded mult =
    let policy = if bounded then Limits.Shed else Limits.Block in
    let blk_limits = Limits.cloud_blk ~policy () in
    let tb = Testbed.make ~seed ?trace ?metrics ?faults () in
    let inst =
      match kind with
      | `Bm -> snd (Testbed.bm_guest ~blk_limits tb)
      | `Vm -> snd (Testbed.vm_guest ~blk_limits tb)
    in
    Overload.blk_flood tb.Testbed.sim ~inst ~offered_iops:(mult *. blk_ceiling)
      ~duration:blk_duration ()
  in
  let net_results =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun bounded ->
            List.map (fun m -> ((kind, bounded, m), net_run kind bounded m)) multipliers)
          [ false; true ])
      [ `Bm; `Vm ]
  in
  let blk_results =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun bounded ->
            List.map (fun m -> ((kind, bounded, m), blk_run kind bounded m)) multipliers)
          [ false; true ])
      [ `Bm; `Vm ]
  in
  let net_row ?(label_extra = "") ((kind, bounded, mult), (r : Overload.net_result)) =
    [
      "net " ^ kind_name kind ^ label_extra;
      policy_name bounded;
      Printf.sprintf "%.1fx" mult;
      Report.si r.Overload.offered_pps;
      Report.si r.Overload.goodput_pps;
      Report.si (float_of_int r.Overload.shed);
      Report.f1 r.Overload.p50_us;
      Report.f1 r.Overload.p99_us;
      Report.f1 r.Overload.max_lag_ms;
    ]
  in
  let blk_row ?(label_extra = "") ((kind, bounded, mult), (r : Overload.blk_result)) =
    [
      "blk " ^ kind_name kind ^ label_extra;
      policy_name bounded;
      Printf.sprintf "%.1fx" mult;
      Report.si r.Overload.offered_iops;
      Report.si r.Overload.goodput_iops;
      Report.si (float_of_int r.Overload.rejected);
      Report.f1 r.Overload.blk_p50_us;
      Report.f1 r.Overload.blk_p99_us;
      Report.f1 r.Overload.blk_max_lag_ms;
    ]
  in
  (* Combined faults + overload soak: the same 2x flood with the fault
     plan armed, on the bounded bm datapath — overload control and
     failure recovery composing, not interfering. *)
  let soak_rows =
    match faults with
    | None -> []
    | Some plan ->
      [
        net_row ~label_extra:"+faults" ((`Bm, true, 2.0), net_run ~faults:plan `Bm true 2.0);
        blk_row ~label_extra:"+faults" ((`Bm, true, 2.0), blk_run ~faults:plan `Bm true 2.0);
      ]
  in
  let net_at bounded = List.assoc (`Bm, bounded, 4.0) net_results in
  let blk_at bounded = List.assoc (`Bm, bounded, 4.0) blk_results in
  {
    id = "overload";
    title = "Overload: goodput and schedule latency, 0.5x-4x the rate limits";
    header =
      [ "path"; "admission"; "load"; "offered/s"; "goodput/s"; "refused"; "p50 us"; "p99 us"; "lag ms" ];
    rows = List.map net_row net_results @ List.map blk_row blk_results @ soak_rows;
    notes =
      [
        "Ceilings (Table 3): net 4M PPS / 10 Gbit/s; blk 25K IOPS / 300 MB/s.";
        "Latency is measured against each packet's intended (open-loop) send time.";
        Printf.sprintf
          "net bm at 4x: bounded goodput %s pps (p99 %s us); blocking p99 %s us, %s ms behind schedule"
          (Report.si (net_at true).Overload.goodput_pps)
          (Report.f1 (net_at true).Overload.p99_us)
          (Report.f1 (net_at false).Overload.p99_us)
          (Report.f1 (net_at false).Overload.max_lag_ms);
        Printf.sprintf
          "blk bm at 4x: bounded goodput %s IOPS (p99 %s us); blocking p99 %s us"
          (Report.si (blk_at true).Overload.goodput_iops)
          (Report.f1 (blk_at true).Overload.blk_p99_us)
          (Report.f1 (blk_at false).Overload.blk_p99_us);
        (match faults with
        | Some _ -> "soak rows: same flood with the fault plan armed (recovery under pressure)."
        | None -> "pass --faults SEED:SPEC to add the combined faults+overload soak rows.");
      ];
  }

(* ------------------------------------------------------------------ *)
(* Cross-host experiments: traffic over the link-level fabric *)

module Fabric = Bm_fabric.Fabric
module Topology = Bm_fabric.Topology
module Packet = Bm_virtio.Packet

(* One bm-guest on each of two base servers; with a topology in the
   testbed the servers claim fabric ports 0 and 1 in creation order. *)
let xhost_bm_pair tb =
  let s1 = Testbed.bm_server tb in
  let s2 = Testbed.bm_server tb in
  let g server name =
    match Bm_hypervisor.provision server ~name () with Ok i -> i | Error e -> failwith e
  in
  (g s1 "a", g s2 "b")

let xhost_vm_pair tb =
  let h1 = Testbed.vm_host tb in
  let h2 = Testbed.vm_host tb in
  (Kvm.create_vm h1 (Kvm.default_config ~name:"a"), Kvm.create_vm h2 (Kvm.default_config ~name:"b"))

(* Background load injected straight into the fabric (pseudo endpoints,
   so it contends in the link queues without consuming guest or vswitch
   resources): every [period] a train of [train] bursts, until a stop
   time — the on/off pattern that builds and drains queues. *)
let background_trains sim net ~src_host ~dst_host ~burst_bytes ~burst_count ~train ~period ~until
    =
  let next_id = ref 0 in
  Sim.spawn sim (fun () ->
      let rec tick () =
        if Sim.clock () < until then begin
          for _ = 1 to train do
            incr next_id;
            Fabric.send net ~src_host ~dst_host
              ~deliver:(fun _ -> ())
              (Packet.make ~id:!next_id ~src:0x6f00 ~dst:0x6f01 ~size:burst_bytes
                 ~count:burst_count ~tag:1 ~protocol:Packet.Udp ~sent_at:(Sim.clock ()) ())
          done;
          Sim.delay period;
          tick ()
        end
      in
      tick ())

let hottest_link net ~now =
  List.fold_left
    (fun acc (s : Fabric.link_stat) ->
      match acc with
      | Some (a : Fabric.link_stat) when a.utilization >= s.utilization -> acc
      | _ -> Some s)
    None
    (Fabric.link_stats net ~now)

let link_note net ~now =
  match hottest_link net ~now with
  | None -> "fabric: no links"
  | Some s ->
    Printf.sprintf "hottest link %s: util %s, depth p99 %s, delivered %s, dropped %s" s.name
      (Report.pct s.utilization) (Report.f1 s.depth_p99)
      (Report.si (float_of_int s.delivered_pkts))
      (Report.si (float_of_int s.dropped_pkts))

let run_xhost_rr { seed; quick; trace; metrics; topo; _ } =
  let count = if quick then 400 else 2000 in
  let rr tb (a, b) = Netperf.tcp_rr tb.Testbed.sim ~src:a ~dst:b ~count () in
  (* On-host baseline: the pre-fabric fast path, same server. *)
  let tb0 = Testbed.make ~seed ?trace ?metrics () in
  let _, a0, b0 = Testbed.bm_pair tb0 in
  let on_host = rr tb0 (a0, b0) in
  (* Cross-host over an idle leaf-spine: hosts in different racks. *)
  let topo_idle = Option.value topo ~default:(Topology.clos ~hosts:2 ~tors:2 ~spines:2 ()) in
  let tb1 = Testbed.make ~seed ?trace ?metrics ~topology:topo_idle () in
  let bm_pair1 = xhost_bm_pair tb1 in
  let idle = rr tb1 bm_pair1 in
  let net1 = Option.get tb1.Testbed.net in
  (* Same racks, one undersized spine, on/off cross traffic sharing the
     request path: queueing delay without drops (trains of 30 bursts
     stay under the 64-burst queues). *)
  let topo_hot = Topology.clos ~hosts:2 ~tors:2 ~spines:1 ~spine_gbit_s:10.0 () in
  let tb2 = Testbed.make ~seed ?trace ?metrics ~topology:topo_hot () in
  let bm_pair2 = xhost_bm_pair tb2 in
  let net2 = Option.get tb2.Testbed.net in
  background_trains tb2.Testbed.sim net2 ~src_host:0 ~dst_host:1 ~burst_bytes:15_000
    ~burst_count:10 ~train:30 ~period:(Simtime.us 500.0)
    ~until:(if quick then Simtime.ms 150.0 else Simtime.ms 600.0);
  let hot = rr tb2 bm_pair2 in
  (* vm-guests across the same idle fabric. *)
  let tb3 = Testbed.make ~seed ?trace ?metrics ~topology:topo_idle () in
  let vm_pair = xhost_vm_pair tb3 in
  let vm_idle = rr tb3 vm_pair in
  (* An uncongested transaction pays, on top of the on-host RTT, the
     wire path both ways plus the remote vswitch's per-packet cost both
     ways — nothing else. *)
  let wire_bytes = 64 + Packet.tcp_header_bytes in
  let expected_delta_us =
    (2.0 *. (Fabric.path_latency_ns net1 ~src_host:0 ~dst_host:1 ~bytes:wire_bytes +. 300.0))
    /. 1e3
  in
  let measured_delta_us = idle.Netperf.rtt_p50_us -. on_host.Netperf.rtt_p50_us in
  let row label (r : Netperf.rr_result) =
    [
      label;
      string_of_int r.Netperf.transactions;
      Report.si r.Netperf.per_s;
      Report.f1 r.Netperf.rtt_p50_us;
      Report.f1 r.Netperf.rtt_p99_us;
      Report.f1 r.Netperf.rtt_p999_us;
    ]
  in
  {
    id = "xhost_rr";
    title = "Cross-host netperf TCP_RR over the leaf-spine fabric";
    header = [ "config"; "tx"; "tx/s"; "p50 us"; "p99 us"; "p99.9 us" ];
    rows =
      [
        row "bm on-host" on_host;
        row "bm cross-host, idle spine" idle;
        row "bm cross-host, hot spine" hot;
        row "vm cross-host, idle spine" vm_idle;
        Report.check
          ~paper:(Report.f1 expected_delta_us)
          ~measured:(Report.f1 measured_delta_us)
          ~ok:
            (within ~tolerance:0.1 ~target:expected_delta_us measured_delta_us)
          [ "idle RTT delta vs on-host (us)"; "-"; "-" ];
        Report.check ~paper:">= 2x idle"
          ~measured:(Report.f1 hot.Netperf.rtt_p99_us)
          ~ok:(hot.Netperf.rtt_p99_us >= 2.0 *. idle.Netperf.rtt_p99_us)
          [ "hot-spine p99 inflation (us)"; "-"; "-" ];
      ];
    notes =
      [
        Printf.sprintf "idle topology: %s" (Topology.render (Fabric.topology net1));
        Printf.sprintf "expected idle delta = 2 x (one-way path latency + remote vswitch cost)";
        Printf.sprintf "hot spine: %s" (link_note net2 ~now:(Sim.now tb2.Testbed.sim));
      ];
  }

let run_xhost_stream { seed; quick; trace; metrics; topo; _ } =
  let duration = if quick then Simtime.ms 30.0 else Simtime.ms 300.0 in
  let stream tb (a, b) = Netperf.tcp_stream tb.Testbed.sim ~src:a ~dst:b ~duration () in
  let topo_idle = Option.value topo ~default:(Topology.clos ~hosts:2 ~tors:2 ~spines:2 ()) in
  let bm_cell topology =
    let tb = Testbed.make ~seed ?trace ?metrics ~topology () in
    let pair = xhost_bm_pair tb in
    let r = stream tb pair in
    (r, Option.get tb.Testbed.net, Sim.now tb.Testbed.sim)
  in
  let idle, net_idle, now_idle = bm_cell topo_idle in
  (* The guests' 10 Gbit/s cap funnelled through a 5 Gbit/s spine: the
     ToR uplink queue fills and drop-tails — loss, not backpressure. *)
  let hot, net_hot, now_hot =
    bm_cell (Topology.clos ~hosts:2 ~tors:2 ~spines:1 ~spine_gbit_s:5.0 ())
  in
  let vm_idle =
    let tb = Testbed.make ~seed ?trace ?metrics ~topology:topo_idle () in
    let pair = xhost_vm_pair tb in
    stream tb pair
  in
  let row label (r : Netperf.throughput_result) =
    [
      label;
      Report.f2 r.Netperf.payload_gbit_s;
      Report.f2 r.Netperf.gbit_s;
      Report.si (float_of_int r.Netperf.messages);
    ]
  in
  {
    id = "xhost_stream";
    title = "Cross-host TCP throughput: idle vs oversubscribed spine";
    header = [ "config"; "payload gbit/s"; "wire gbit/s"; "messages" ];
    rows =
      [
        row "bm cross-host, idle spine" idle;
        row "bm cross-host, 5G spine" hot;
        row "vm cross-host, idle spine" vm_idle;
        Report.check ~paper:"~9.6 (rate cap)"
          ~measured:(Report.f2 idle.Netperf.payload_gbit_s)
          ~ok:(idle.Netperf.payload_gbit_s >= 8.5)
          [ "idle spine carries the rate cap" ];
        Report.check ~paper:"< 5.0 + drops"
          ~measured:(Report.f2 hot.Netperf.payload_gbit_s)
          ~ok:(hot.Netperf.payload_gbit_s < 5.0 && Fabric.dropped net_hot > 0)
          [ "oversubscribed spine sheds load" ];
      ];
    notes =
      [
        Printf.sprintf "idle: %s" (link_note net_idle ~now:now_idle);
        Printf.sprintf "hot:  %s" (link_note net_hot ~now:now_hot);
        Printf.sprintf "hot fabric conservation: injected %d = delivered %d + dropped %d"
          (Fabric.injected net_hot) (Fabric.delivered net_hot) (Fabric.dropped net_hot);
      ];
  }

let run_xhost_migrate { seed; quick; trace; metrics; topo; _ } =
  let mem_gb = if quick then 4 else 16 in
  let dirty = 2.0 in
  let migrate_in tb bm via =
    let out = ref None in
    Sim.spawn tb.Testbed.sim (fun () ->
        match Live_migration.inject tb.Testbed.sim (Rng.create ~seed:(seed + 1)) bm with
        | Error e -> failwith e
        | Ok inj -> (
          match Live_migration.migrate inj ?via ~dirty_rate_gb_s:dirty ~mem_gb () with
          | Error e -> failwith e
          | Ok s -> out := Some s));
    Testbed.run tb;
    Option.get !out
  in
  (* Analytic dedicated link — the pre-fabric model. *)
  let analytic =
    let tb = Testbed.make ~seed ?trace ?metrics () in
    let _, bm = Testbed.bm_guest tb in
    migrate_in tb bm None
  in
  let fabric_cell ~flood =
    let topology = Option.value topo ~default:(Topology.two_host ()) in
    let tb = Testbed.make ~seed ?trace ?metrics ~topology () in
    let _, bm = Testbed.bm_guest tb in
    let net = Option.get tb.Testbed.net in
    if flood then
      (* ~50% of the uplink in 1 MB bursts, alongside the pre-copy. *)
      background_trains tb.Testbed.sim net ~src_host:0 ~dst_host:1 ~burst_bytes:1_000_000
        ~burst_count:1 ~train:1 ~period:(Simtime.us 160.0)
        ~until:(if quick then Simtime.sec 1.5 else Simtime.sec 5.0);
    migrate_in tb bm (Some (net, 0, 1))
  in
  let idle = fabric_cell ~flood:false in
  let contended = fabric_cell ~flood:true in
  let row label (s : Live_migration.migration_stats) =
    [
      label;
      string_of_int s.Live_migration.precopy_rounds;
      Report.f2 (s.Live_migration.bytes_copied /. 1e9);
      Report.f2 (s.Live_migration.blackout_ns /. 1e6);
      Report.f2 (s.Live_migration.total_ns /. 1e9);
    ]
  in
  {
    id = "xhost_migrate";
    title = "Live migration over the fabric: idle vs contended uplink";
    header = [ "config"; "rounds"; "copied GB"; "blackout ms"; "total s" ];
    rows =
      [
        row "dedicated link (analytic)" analytic;
        row "fabric, idle" idle;
        row "fabric, contended uplink" contended;
        Report.check ~paper:"= analytic"
          ~measured:(Report.f2 (idle.Live_migration.total_ns /. 1e9))
          ~ok:
            (within ~tolerance:0.1 ~target:analytic.Live_migration.total_ns
               idle.Live_migration.total_ns)
          [ "idle fabric matches dedicated link"; "-" ];
        Report.check ~paper:"> idle"
          ~measured:(Report.f2 (contended.Live_migration.total_ns /. 1e9))
          ~ok:(contended.Live_migration.total_ns > 1.2 *. idle.Live_migration.total_ns)
          [ "contention stretches the copy"; "-" ];
      ];
    notes =
      [
        Printf.sprintf "%d GB at %.1f GB/s dirty rate; pre-copy in 1 MB chunks, window 16"
          mem_gb dirty;
        "contended cell: 1 MB background burst every 160 us on the same uplink (~50% duty)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fleet scale: the live fleet simulation *)

let run_fleet_scale { seed; quick; trace; metrics; topo; hosts; guests; tenants; _ } =
  let base = if quick then Fleet.Live.quick_config else Fleet.Live.default_config in
  let cfg =
    {
      base with
      Fleet.Live.hosts = Option.value hosts ~default:base.Fleet.Live.hosts;
      guests = Option.value guests ~default:base.Fleet.Live.guests;
      tenants = Option.value tenants ~default:base.Fleet.Live.tenants;
    }
  in
  let live = Fleet.Live.build ?trace ?metrics ?topo ~seed cfg in
  let sched = Fleet.Live.scheduler live in
  let cp = Bm_cloud.Scheduler.control_plane sched in
  let net = Fleet.Live.fabric live in
  Fleet.Live.serve live ~duration_ns:(Simtime.ms (if quick then 2.0 else 10.0));
  (* Fail the busiest host, drain it through the fabric, repair it,
     then rebalance — the full maintenance cycle. *)
  let victim_host =
    fst
      (List.fold_left
         (fun (bh, bc) (h, c) -> if c > bc then (h, c) else (bh, bc))
         (0, -1)
         (Bm_cloud.Scheduler.occupancy sched))
  in
  let evac = Fleet.Live.evacuate live ~server:victim_host in
  let recovered = Fleet.Live.restore live ~server:victim_host in
  let moves = Bm_cloud.Scheduler.rebalance sched () in
  Fleet.Live.serve live ~duration_ns:(Simtime.ms (if quick then 1.0 else 2.0));
  let survey = Fleet.Live.exit_survey live (Rng.create ~seed:(seed + 1)) in
  let placed_now = List.length (Bm_cloud.Scheduler.assignments sched) in
  let stranded_now = List.length (Bm_cloud.Scheduler.stranded sched) in
  let max_util =
    List.fold_left
      (fun acc id -> Float.max acc (Bm_cloud.Control_plane.server_utilization cp id))
      0.0
      (Bm_cloud.Control_plane.server_ids cp)
  in
  let violations = Bm_cloud.Scheduler.anti_affinity_violations sched in
  {
    id = "fleet_scale";
    title =
      Printf.sprintf "Fleet scale: %d guests on %d fabric-attached hosts (%d tenants)" cfg.guests
        cfg.hosts cfg.tenants;
    header = [ "property"; "expect"; "measured"; "band" ];
    rows =
      [
        Report.check
          ~paper:(string_of_int cfg.guests)
          ~measured:(string_of_int (Fleet.Live.placed live))
          ~ok:(Fleet.Live.placed live = cfg.guests)
          [ "all guests placed at build" ];
        Report.check ~paper:"0"
          ~measured:(string_of_int (List.length violations))
          ~ok:(violations = [])
          [ "anti-affinity violations" ];
        Report.check
          ~paper:(Printf.sprintf "<= %s" (Report.pct cfg.Fleet.Live.host_ceiling))
          ~measured:(Report.pct max_util)
          ~ok:(max_util <= cfg.Fleet.Live.host_ceiling +. 1e-9)
          [ "max per-host utilization" ];
        Report.check ~paper:"0 stranded"
          ~measured:(Printf.sprintf "%d/%d re-placed" evac.Fleet.Live.replaced evac.Fleet.Live.victims)
          ~ok:(evac.Fleet.Live.stranded = 0 && evac.Fleet.Live.replaced = evac.Fleet.Live.victims)
          [ "mass evacuation" ];
        Report.check ~paper:"0"
          ~measured:(string_of_int (Fabric.dropped net))
          ~ok:(Fabric.dropped net = 0)
          [ "fabric drops (flows + pre-copy)" ];
        Report.check
          ~paper:(string_of_int cfg.guests)
          ~measured:(Printf.sprintf "%d placed + %d stranded" placed_now stranded_now)
          ~ok:(placed_now + stranded_now = cfg.guests)
          [ "guest conservation" ];
        Report.check ~paper:"3.82%"
          ~measured:(Report.pct survey.Fleet.over_10k)
          ~ok:(within ~tolerance:0.5 ~target:0.0382 survey.Fleet.over_10k)
          [ "Table 2 > 10K exits/s, live population" ];
      ];
    notes =
      [
        Printf.sprintf "topology: %s" (Bm_fabric.Topology.render (Fabric.topology net));
        Printf.sprintf "serve: %d east-west bursts; fabric injected %d = delivered %d + dropped %d"
          (Fleet.Live.flow_bursts live) (Fabric.injected net) (Fabric.delivered net)
          (Fabric.dropped net);
        Printf.sprintf "evacuated host %d: %d victims, %.1f GB pre-copied in %.1f ms" victim_host
          evac.Fleet.Live.victims
          (float_of_int evac.Fleet.Live.bytes_streamed /. 1e9)
          (evac.Fleet.Live.stream_ns /. 1e6);
        Printf.sprintf "restore recovered %d stranded; rebalance moved %d guests" recovered
          (List.length moves);
        Printf.sprintf "live Table 2 tail: > 50K %s (paper 0.37%%), > 100K %s (paper 0.13%%)"
          (Report.pct survey.Fleet.over_50k) (Report.pct survey.Fleet.over_100k);
        Report.tenant_table ~title:"tenant metering (first 5)"
          (List.filteri (fun i _ -> i < 5) (Bm_cloud.Scheduler.tenants sched));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Game day: composed fault timeline + degradation ladder + SLO scores *)

(* One tier's SLO scores in a scenario outcome, and how many were met. *)
let by_tier tier (o : Scenario.outcome) =
  List.filter (fun (s : Bm_cloud.Slo.tenant_score) -> s.Bm_cloud.Slo.tier = tier) o.Scenario.scores

let met scores =
  List.length (List.filter (fun (s : Bm_cloud.Slo.tenant_score) -> s.Bm_cloud.Slo.met) scores)

let run_game_day { seed; quick; trace; metrics; shards; scenario; policy; _ } =
  let spec = match scenario with Some s -> s | None -> Scenario.default_spec ~seed () in
  let kind = Option.value policy ~default:Bm_cloud.Policy.Ladder in
  let cfg = if quick then Fleet.Live.quick_config else Fleet.Live.default_config in
  (* The same timeline twice: open loop, then with the degradation
     policy closed around it. The scorecard delta is the experiment.
     The two arms share nothing (each builds its own fleet from the
     spec), so [--shards >= 2] runs them on two domains; results join
     in input order, byte-identical to the sequential sweep. *)
  let off, on =
    match
      Parallel.map
        ~jobs:(min shards 2)
        (fun degrade ->
          if degrade then Scenario.run ?trace ?metrics ~degrade:true ~policy:kind ~fleet:cfg spec
          else Scenario.run ?trace ?metrics ~degrade:false ~fleet:cfg spec)
        [ false; true ]
    with
    | [ off; on ] -> (off, on)
    | _ -> assert false
  in
  let tier_row tier =
    let o = by_tier tier off and n = by_tier tier on in
    [
      Bm_cloud.Slo.tier_name tier;
      string_of_int (List.length n);
      Printf.sprintf "%d/%d" (met o) (List.length o);
      Printf.sprintf "%d/%d" (met n) (List.length n);
    ]
  in
  let improved =
    List.exists
      (fun tier -> met (by_tier tier on) > met (by_tier tier off))
      [ Bm_cloud.Slo.Gold; Bm_cloud.Slo.Silver; Bm_cloud.Slo.Bronze ]
  in
  {
    id = "game_day";
    title = "Game day: composed faults, degradation ladder, SLO scorecard";
    header = [ "tier"; "tenants"; "SLO met (open loop)"; "SLO met (degradation)" ];
    rows =
      [
        tier_row Bm_cloud.Slo.Gold;
        tier_row Bm_cloud.Slo.Silver;
        tier_row Bm_cloud.Slo.Bronze;
        Report.check ~paper:"degradation helps"
          ~measured:(Printf.sprintf "%d -> %d tenants met" off.Scenario.met on.Scenario.met)
          ~ok:improved
          [ "some tier gains SLO compliance" ];
      ];
    notes =
      [
        Scenario.render spec;
        off.Scenario.scorecard;
        on.Scenario.scorecard;
        Printf.sprintf "degradation %s: max stage %d, %d stage actions, %d guard retries"
          on.Scenario.policy on.Scenario.max_stage on.Scenario.stage_actions
          on.Scenario.guard_retries;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Policy race: every degradation policy over the same seeded timeline *)

(* The same scenario seed (victims, fault times, traffic arrivals) for
   every entrant, so the table differences are pure policy: which levers
   each pulled, and what that bought per tier. Rows are ranked by total
   SLOs met, Gold met breaking ties; the open-loop row is the floor. *)
let run_policy_race { seed; quick; trace; metrics; shards; scenario; _ } =
  let spec = match scenario with Some s -> s | None -> Scenario.default_spec ~seed () in
  let cfg = if quick then Fleet.Live.quick_config else Fleet.Live.default_config in
  (* One independent arm per entrant (plus the open-loop floor), each
     building its own fleet from the same seeded spec: [--shards >= 2]
     races them across that many domains, joined in input order. *)
  let open_loop, entrants =
    match
      Parallel.map ~jobs:(min shards (1 + List.length Bm_cloud.Policy.all))
        (function
          | None -> Scenario.run ?trace ?metrics ~degrade:false ~fleet:cfg spec
          | Some kind -> Scenario.run ?trace ?metrics ~degrade:true ~policy:kind ~fleet:cfg spec)
        (None :: List.map Option.some Bm_cloud.Policy.all)
    with
    | open_loop :: entrants -> (open_loop, entrants)
    | [] -> assert false
  in
  let gold_met o = met (by_tier Bm_cloud.Slo.Gold o) in
  let tier_cell tier o =
    let ss = by_tier tier o in
    Printf.sprintf "%d/%d" (met ss) (List.length ss)
  in
  let row label (o : Scenario.outcome) =
    [
      label;
      string_of_int o.Scenario.met;
      tier_cell Bm_cloud.Slo.Gold o;
      tier_cell Bm_cloud.Slo.Silver o;
      tier_cell Bm_cloud.Slo.Bronze o;
      string_of_int o.Scenario.max_stage;
      string_of_int o.Scenario.stage_actions;
      string_of_int o.Scenario.evacuated_guests;
    ]
  in
  let ranked =
    List.stable_sort
      (fun (a : Scenario.outcome) b ->
        match compare b.Scenario.met a.Scenario.met with
        | 0 -> compare (gold_met b) (gold_met a)
        | c -> c)
      entrants
  in
  let best = List.hd ranked in
  let ladder =
    List.find (fun (o : Scenario.outcome) -> o.Scenario.policy = "ladder") entrants
  in
  {
    id = "policy_race";
    title = "Policy race: every degradation policy on the same seeded game day";
    header =
      [ "policy"; "SLO met"; "gold"; "silver"; "bronze"; "max stage"; "actions"; "evacuated" ];
    rows =
      (row "open loop" open_loop :: List.map (fun o -> row o.Scenario.policy o) ranked)
      @ [
          Report.check ~paper:">= ladder"
            ~measured:
              (Printf.sprintf "%s: %d met (ladder %d)" best.Scenario.policy best.Scenario.met
                 ladder.Scenario.met)
            ~ok:(best.Scenario.met >= ladder.Scenario.met)
            [ "winner at least matches the ladder"; "-"; "-"; "-"; "-" ];
        ];
    notes =
      Scenario.render spec
      :: Printf.sprintf "ranking: SLOs met, Gold met breaking ties; same seed for every row"
      :: open_loop.Scenario.scorecard
      :: List.map (fun (o : Scenario.outcome) -> o.Scenario.scorecard) ranked;
  }

(* ------------------------------------------------------------------ *)
(* SR-IOV virtual functions: scale sweep, hot-reassignment, ablation *)

module Vf = Bm_iobond.Vf

let percentile_of sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

(* One guest per VF, Poisson arrivals per queue, raw device — the
   arbitration model in isolation, before any hypervisor is involved. *)
let run_vf_scale { seed; quick; trace; metrics; faults; shards; vfs; _ } =
  let vfs_list =
    match vfs with Some n -> [ n ] | None -> if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ]
  in
  let queues_list = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let per_vf = if quick then 300 else 1500 in
  let cells = List.concat_map (fun v -> List.map (fun q -> (v, q)) queues_list) vfs_list in
  let run_cell (vfs, queues) =
    let tb = Testbed.make ~seed ?trace ?metrics ?faults () in
    let dev =
      Vf.create_device ~obs:tb.Testbed.obs ~fault:tb.Testbed.fault tb.Testbed.sim
        ~profile:Bm_iobond.Profile.Fpga ~vfs ~queues_per_vf:queues ()
    in
    let lats = ref [] and delivered = ref 0 and rejected = ref 0 in
    let t_last = ref 0.0 in
    for v = 0 to vfs - 1 do
      let f =
        match Vf.attach dev ~owner:(Printf.sprintf "guest%d" v) () with
        | Ok f -> f
        | Error e -> failwith e
      in
      let rng = Rng.split tb.Testbed.rng in
      Sim.spawn tb.Testbed.sim (fun () ->
          for i = 0 to per_vf - 1 do
            Sim.delay (Rng.exponential rng ~mean:900.0);
            match
              Vf.submit f ~queue:(i mod queues) ~bytes_:1500 ~deliver:(fun c ->
                  incr delivered;
                  t_last := Float.max !t_last c.Vf.c_completed_ns;
                  lats := (c.Vf.c_completed_ns -. c.Vf.c_submitted_ns) :: !lats)
            with
            | `Submitted _ -> ()
            | `Rejected -> incr rejected
          done)
    done;
    Testbed.run tb;
    let sorted = Array.of_list (List.sort compare !lats) in
    let gbit =
      if !t_last > 0.0 then 8.0 *. 1500.0 *. float_of_int !delivered /. !t_last else 0.0
    in
    [
      string_of_int vfs;
      string_of_int queues;
      string_of_int (vfs * per_vf);
      string_of_int !delivered;
      string_of_int !rejected;
      Report.f2 gbit;
      Report.f2 (percentile_of sorted 0.50 /. 1e3);
      Report.f2 (percentile_of sorted 0.99 /. 1e3);
    ]
  in
  (* Cells share nothing — each builds its own testbed — so [--shards]
     fans them across domains; the input-order join keeps the table
     byte-identical at any width. *)
  let rows = Parallel.map ~jobs:shards run_cell cells in
  {
    id = "vf_scale";
    title = "VF scale: guests x queues throughput/latency sweep";
    header = [ "vfs"; "queues"; "offered"; "delivered"; "rejected"; "gbit/s"; "p50 us"; "p99 us" ];
    rows;
    notes =
      [
        "One guest per VF, equal weights: per-VF share = device rate / active VFs.";
        "1500B frames, Poisson arrivals (mean 900ns) per VF across its queue pairs.";
      ];
  }

(* Hot-reassignment under load: seqno bookkeeping proves no completion
   is lost or duplicated across the ownership swaps; the device's
   blackout log gives the distribution. *)
let run_vf_reassign { seed; quick; trace; metrics; faults; vfs; _ } =
  let vfs = max 2 (Option.value vfs ~default:4) in
  let rounds = if quick then 8 else 32 in
  let per_vf = if quick then 400 else 1600 in
  let tb = Testbed.make ~seed ?trace ?metrics ?faults () in
  let dev =
    Vf.create_device ~obs:tb.Testbed.obs ~fault:tb.Testbed.fault tb.Testbed.sim
      ~profile:Bm_iobond.Profile.Fpga ~vfs ~queues_per_vf:2 ()
  in
  let handles =
    Array.init vfs (fun v ->
        match Vf.attach dev ~owner:(Printf.sprintf "tenant%d" v) () with
        | Ok f -> f
        | Error e -> failwith e)
  in
  let submitted = Hashtbl.create 4096 and got = Hashtbl.create 4096 in
  let dups = ref 0 and rejected = ref 0 in
  Array.iteri
    (fun v f ->
      let rng = Rng.split tb.Testbed.rng in
      Sim.spawn tb.Testbed.sim (fun () ->
          for i = 0 to per_vf - 1 do
            Sim.delay (Rng.exponential rng ~mean:1200.0);
            match
              Vf.submit f ~queue:(i mod 2) ~bytes_:1500 ~deliver:(fun c ->
                  let key = (c.Vf.c_vf, c.Vf.c_queue, c.Vf.c_seq) in
                  if Hashtbl.mem got key then incr dups else Hashtbl.replace got key ())
            with
            | `Submitted seq -> Hashtbl.replace submitted (v, i mod 2, seq) ()
            | `Rejected -> incr rejected
          done))
    handles;
  let reassign_errors = ref 0 in
  Sim.spawn tb.Testbed.sim (fun () ->
      for r = 1 to rounds do
        Sim.delay 15_000.0;
        let f = handles.(r mod vfs) in
        match Vf.reassign f ~owner:(Printf.sprintf "tenant%d_r%d" (r mod vfs) r) with
        | Ok _ -> ()
        | Error _ -> incr reassign_errors
      done);
  Testbed.run tb;
  let blackouts = Vf.blackouts dev in
  let n_black = List.length blackouts in
  let sorted = Array.of_list (List.sort compare blackouts) in
  let sum = List.fold_left ( +. ) 0.0 blackouts in
  let avg = if n_black > 0 then sum /. float_of_int n_black else 0.0 in
  let lost =
    Hashtbl.fold (fun k () acc -> if Hashtbl.mem got k then acc else acc + 1) submitted 0
  in
  let conservation =
    match Vf.check_conservation dev with Ok () -> "ok" | Error e -> e
  in
  let total_submitted = Hashtbl.length submitted in
  {
    id = "vf_reassign";
    title = "VF hot-reassignment: blackout distribution under load";
    header = [ "check"; "paper"; "measured"; "band" ];
    rows =
      [
        Report.check
          ~paper:(string_of_int rounds)
          ~measured:(string_of_int (Vf.reassignments dev))
          ~ok:(Vf.reassignments dev = rounds - !reassign_errors)
          [ "reassignments completed" ];
        Report.check ~paper:"finite"
          ~measured:
            (Printf.sprintf "min %s avg %s p99 %s max %s us"
               (Report.f2 (percentile_of sorted 0.0 /. 1e3))
               (Report.f2 (avg /. 1e3))
               (Report.f2 (percentile_of sorted 0.99 /. 1e3))
               (Report.f2 (percentile_of sorted 1.0 /. 1e3)))
          ~ok:(n_black = Vf.reassignments dev && List.for_all Float.is_finite blackouts)
          [ "blackout window" ];
        Report.check ~paper:"0"
          ~measured:(string_of_int lost)
          ~ok:(lost = 0)
          [ "completions lost across swaps" ];
        Report.check ~paper:"0"
          ~measured:(string_of_int !dups)
          ~ok:(!dups = 0)
          [ "completions duplicated" ];
        Report.check ~paper:"ok" ~measured:conservation ~ok:(conservation = "ok")
          [ "device conservation" ];
      ];
    notes =
      [
        Printf.sprintf "%d VFs, %d reassignment rounds; %d descriptors accepted, %d rejected \
                        during blackouts (visible, not lost)"
          vfs rounds total_submitted !rejected;
        "Rejections during a drain are the SVFF blackout made visible: the submitter sees \
         `Rejected instead of silent loss.";
      ];
  }

(* The paper's Fig. 9/10 co-resident pairs, re-run per datapath: the
   shadow-vring poll loop against direct assignment, bm and vm. *)
let run_vf_ablation { seed; quick; trace; metrics; faults; shards; vfs; datapath; _ } =
  let datapaths =
    match datapath with Some d -> [ d ] | None -> Vf.all_datapaths
  in
  let vfs = Option.value vfs ~default:8 in
  let duration = if quick then Simtime.ms 30.0 else Simtime.ms 300.0 in
  let pings = if quick then 300 else 1500 in
  let bm_pair dp tb =
    let server = Testbed.bm_server ~vfs tb in
    let prov name =
      match Bm_hypervisor.provision server ~name ~datapath:dp () with
      | Ok i -> i
      | Error e -> failwith e
    in
    (prov "bm0", prov "bm1")
  in
  let vm_pair dp tb =
    let host = Testbed.vm_host ~vfs tb in
    let mk name =
      Kvm.create_vm host { (Kvm.default_config ~name) with Kvm.vcpus = 16; datapath = dp }
    in
    (mk "vm0", mk "vm1")
  in
  let cells = List.concat_map (fun dp -> [ (`Bm, dp); (`Vm, dp) ]) datapaths in
  let run_cell (sub, dp) =
    let pair tb = match sub with `Bm -> bm_pair dp tb | `Vm -> vm_pair dp tb in
    let tb1 = Testbed.make ~seed ?trace ?metrics ?faults () in
    let a, b = pair tb1 in
    let pps = Netperf.udp_pps tb1.Testbed.sim ~src:a ~dst:b ~senders:2 ~batch:32 ~duration () in
    let tb2 = Testbed.make ~seed ?trace ?metrics ?faults () in
    let a2, b2 = pair tb2 in
    let lat = Sockperf.ping_pong tb2.Testbed.sim ~a:a2 ~b:b2 ~path:Sockperf.Kernel ~count:pings () in
    [
      (match sub with `Bm -> "bm-guest" | `Vm -> "vm-guest");
      Vf.datapath_name dp;
      Report.si pps.Netperf.received_pps;
      Report.si pps.Netperf.jitter_pps;
      string_of_int pps.Netperf.dropped;
      Report.f2 lat.Sockperf.avg_us;
      Report.f2 lat.Sockperf.p99_us;
    ]
  in
  (* Each cell builds two private testbeds; [--shards] fans the cells
     out and the input-order join keeps the scorecard byte-identical. *)
  let rows = Parallel.map ~jobs:shards run_cell cells in
  {
    id = "vf_ablation";
    title = "Datapath ablation: shadow-vring vs passthrough vs VF-sliced";
    header = [ "guest"; "datapath"; "UDP PPS"; "jitter"; "dropped"; "ping avg us"; "ping p99 us" ];
    rows;
    notes =
      [
        "Workloads: netperf UDP PPS and sockperf kernel-path latency between co-resident \
         guests at Table-3 limits (the Fig. 9/10 pairs).";
        "vring crosses the poll loop; passthrough pins a whole device; vf slices one shared \
         device with weighted DMA arbitration.";
      ];
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "table1"; title = "Service comparison"; paper_ref = "Table 1"; run = run_table1 };
    { id = "table2"; title = "Fleet VM-exit survey"; paper_ref = "Table 2"; run = run_table2 };
    { id = "fig1"; title = "VM preemption percentiles"; paper_ref = "Fig. 1"; run = run_fig1 };
    { id = "table3"; title = "Instance catalogue"; paper_ref = "Table 3"; run = run_table3 };
    { id = "fig7"; title = "SPEC CINT2006"; paper_ref = "Fig. 7"; run = run_fig7 };
    { id = "fig8"; title = "STREAM bandwidth"; paper_ref = "Fig. 8"; run = run_fig8 };
    { id = "fig9"; title = "UDP PPS"; paper_ref = "Fig. 9"; run = run_fig9 };
    { id = "fig10"; title = "UDP/ping latency"; paper_ref = "Fig. 10"; run = run_fig10 };
    { id = "fig11"; title = "Storage latency"; paper_ref = "Fig. 11"; run = run_fig11 };
    { id = "fig12"; title = "NGINX"; paper_ref = "Fig. 12"; run = run_fig12 };
    { id = "fig13"; title = "MariaDB read-only"; paper_ref = "Fig. 13"; run = run_fig13 };
    { id = "fig14"; title = "MariaDB writes"; paper_ref = "Fig. 14"; run = run_fig14 };
    { id = "fig15"; title = "Redis vs clients"; paper_ref = "Fig. 15"; run = run_fig15 };
    { id = "fig16"; title = "Redis vs value size"; paper_ref = "Fig. 16"; run = run_fig16 };
    { id = "sec2_3"; title = "Nested virtualization"; paper_ref = "S2.3"; run = run_sec2_3 };
    { id = "sec3_5"; title = "Cost efficiency"; paper_ref = "S3.5"; run = run_sec3_5 };
    { id = "sec4_3net"; title = "TCP + unrestricted PPS"; paper_ref = "S4.3"; run = run_sec4_3net };
    { id = "sec4_3blk"; title = "Unrestricted local SSD"; paper_ref = "S4.3"; run = run_sec4_3blk };
    { id = "sec6"; title = "ASIC ablation"; paper_ref = "S6"; run = run_sec6 };
    { id = "ablation_reg"; title = "Register-hop ablation"; paper_ref = "design"; run = run_ablation_reg };
    { id = "ablation_dma"; title = "DMA sizing ablation"; paper_ref = "design"; run = run_ablation_dma };
    { id = "ablation_batch"; title = "Burst-size ablation"; paper_ref = "design"; run = run_ablation_batch };
    { id = "ablation_offload"; title = "Flow-offload ablation"; paper_ref = "S6"; run = run_ablation_offload };
    { id = "availability"; title = "Goodput under faults"; paper_ref = "robustness"; run = run_availability };
    { id = "overload"; title = "Overload control"; paper_ref = "robustness"; run = run_overload };
    { id = "evacuation"; title = "Server-failure evacuation"; paper_ref = "S3.1"; run = run_evacuation };
    { id = "xhost_rr"; title = "Cross-host TCP_RR"; paper_ref = "S2/S5 fleet"; run = run_xhost_rr };
    { id = "xhost_stream"; title = "Cross-host TCP throughput"; paper_ref = "S2/S5 fleet"; run = run_xhost_stream };
    { id = "xhost_migrate"; title = "Migration over the fabric"; paper_ref = "S6 + fleet"; run = run_xhost_migrate };
    { id = "fleet_scale"; title = "Live fleet at scale"; paper_ref = "S2/S3 fleet"; run = run_fleet_scale };
    { id = "game_day"; title = "Game-day composite scenario"; paper_ref = "robustness"; run = run_game_day };
    { id = "policy_race"; title = "Degradation-policy race"; paper_ref = "robustness"; run = run_policy_race };
    { id = "vf_scale"; title = "VF scale sweep"; paper_ref = "S5 SR-IOV"; run = run_vf_scale };
    { id = "vf_reassign"; title = "VF hot-reassignment"; paper_ref = "S5 SR-IOV"; run = run_vf_reassign };
    { id = "vf_ablation"; title = "Datapath ablation"; paper_ref = "S5 SR-IOV"; run = run_vf_ablation };
  ]

let find id = List.find_opt (fun s -> s.id = id) all
let ids () = List.map (fun s -> s.id) all

(* Trace/metrics sinks are single mutable buffers shared by every cell;
   recording from several domains would race, so their presence forces a
   sequential sweep, and a sequential run inside each experiment too
   (the arms and cells [shards] fans out would record into the same
   sinks).
   Cells themselves share nothing: each builds its own simulator, RNG and
   testbed from the seed, so output is byte-identical either way. *)
let run ?(jobs = 1) ctx targets =
  let sinks = ctx.trace <> None || ctx.metrics <> None in
  let jobs = if sinks then 1 else max 1 jobs in
  let ctx = { ctx with shards = (if sinks then 1 else max 1 ctx.shards) } in
  let one id =
    match find id with
    | Some spec -> Ok (spec.run ctx)
    | None ->
      Error (Printf.sprintf "unknown experiment %S (try: %s)" id (String.concat ", " (ids ())))
  in
  List.combine targets (Parallel.map ~jobs one targets)

let print_outcome (o : outcome) =
  print_endline "";
  Report.print ~title:o.title ~header:o.header o.rows;
  List.iter (fun n -> print_endline ("  note: " ^ n)) o.notes
