open Bm_engine
open Bm_guest
open Bm_hyp
open Bm_workload
open Report
module Fabric = Bm_fabric.Fabric
module Topology = Bm_fabric.Topology
module Packet = Bm_virtio.Packet
module Vf = Bm_iobond.Vf

type outcome = {
  id : string;
  title : string;
  header : string list;
  rows : cell list list;
  notes : string list;
}

type ctx = {
  seed : int;
  quick : bool;
  trace : Trace.t option;
  metrics : Metrics.t option;
  faults : Fault.plan option;
  topo : Bm_fabric.Topology.t option;
  jobs : int;
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
    jobs = 1;
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
(* The harness: every testbed, guest and client/server setup the run
   functions compare is built here, once. *)

(* A fresh testbed at the context's seed, recording into its sinks. The
   fault plan is passed explicitly: only the experiments that measure
   recovery arm it. *)
let testbed ?faults ?topology ?storage_kind ctx =
  Testbed.make ~seed:ctx.seed ?storage_kind ?trace:ctx.trace ?metrics:ctx.metrics ?faults
    ?topology ()

let bm_guest ?profile ?blk_limits tb = snd (Testbed.bm_guest ?profile ?blk_limits tb)
let vm_guest ?blk_limits tb = snd (Testbed.vm_guest ?blk_limits tb)

let bm_pair ?profile ?net_limits tb =
  let _, a, b = Testbed.bm_pair ?profile ?net_limits tb in
  (a, b)

let vm_pair ?net_limits tb =
  let _, a, b = Testbed.vm_pair ?net_limits tb in
  (a, b)

let provision ?net_limits ?offload ?datapath server name =
  match Bm_hypervisor.provision server ~name ?net_limits ?offload ?datapath () with
  | Ok i -> i
  | Error e -> failwith e

(* A base server on the testbed's own RNG, for the ablations that size
   its DMA engine or offload its flows. *)
let base_server ?dma_gbit_s tb =
  Bm_hypervisor.create_server ~obs:tb.Testbed.obs tb.Testbed.sim tb.Testbed.rng
    ~fabric:tb.Testbed.fabric ~storage:tb.Testbed.storage ?dma_gbit_s ()

(* One guest on each of two servers; with a topology in the testbed the
   servers claim fabric ports 0 and 1 in creation order. *)
let xhost_bm_pair tb =
  let s1 = Testbed.bm_server tb in
  let s2 = Testbed.bm_server tb in
  (provision s1 "a", provision s2 "b")

let xhost_vm_pair tb =
  let h1 = Testbed.vm_host tb in
  let h2 = Testbed.vm_host tb in
  (Kvm.create_vm h1 (Kvm.default_config ~name:"a"), Kvm.create_vm h2 (Kvm.default_config ~name:"b"))

(* The idle leaf-spine of the cross-host experiments, unless the context
   names a topology: two hosts in different racks. *)
let topo_idle ctx = Option.value ctx.topo ~default:(Topology.clos ~hosts:2 ~tors:2 ~spines:2 ())

(* A fresh testbed with one guest, or a pair, built on it by [guest] or
   [pair]; [f] runs a workload on its simulator and returns the result. *)
let on_guest ?storage_kind ctx guest f =
  let tb = testbed ?storage_kind ctx in
  let inst = guest tb in
  f tb.Testbed.sim inst

let on_pair ctx pair f =
  let tb = testbed ctx in
  let a, b = pair tb in
  f tb.Testbed.sim a b

(* Run [f] as one fiber on the testbed, to quiescence; what it returned. *)
let in_fiber tb f =
  let out = ref None in
  Sim.spawn tb.Testbed.sim (fun () -> out := Some (f ()));
  Testbed.run tb;
  Option.get !out

(* One emulated virtio probe on a bm-guest: its simulated time (ns) and
   the register accesses it took. *)
let probe ctx profile =
  let tb = testbed ctx in
  let inst = bm_guest ~profile tb in
  in_fiber tb (fun () ->
      let t0 = Sim.clock () in
      match inst.Instance.probe () with
      | Ok n -> (Sim.clock () -. t0, n)
      | Error e -> failwith e)

(* One PCI register hop of an IO-Bond profile (us), as the model charges it. *)
let hop_us profile = Bm_iobond.Profile.register_ns profile /. 1e3

(* Average one-way kernel-path latency (us) between co-resident bm-guests. *)
let kernel_ping ctx ~count profile =
  on_pair ctx (bm_pair ~profile) (fun sim a b ->
      (Sockperf.ping_pong sim ~a ~b ~path:Sockperf.Kernel ~count ()).Sockperf.avg_us)

(* A server guest and the client box that loads it, on a fresh testbed:
   [serve] starts the service, [load] drives it from the client. *)
let client_server ctx guest ~serve load =
  let tb = testbed ctx in
  let server = guest tb in
  let client = Testbed.client_box tb in
  serve server;
  load tb.Testbed.sim ~client ~server

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let run_table1 _ =
  {
    id = "table1";
    title = "Table 1: comparison of three cloud services";
    header = [ "service"; "security"; "isolation"; "performance"; "density" ];
    rows = List.map (List.map (fun s -> Text s)) (Comparison.rows ());
    notes = [ "Cells derived from model properties (see Bmhive.Comparison)." ];
  }

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let run_table2 { seed; quick; _ } =
  let vms = if quick then 30_000 else 300_000 in
  let rng = Rng.create ~seed in
  let s = Fleet.survey_exits rng ~vms in
  let row threshold paper measured =
    check
      ~paper:(Pct paper)
      ~measured:(Pct measured)
      ~ok:(within ~tolerance:0.5 ~target:paper measured)
      [ Text threshold ]
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
          Int w.Fleet.hour;
          Pct (Fleet.diurnal_load ~hour:w.Fleet.hour);
          Pct w.Fleet.shared_p99;
          Pct w.Fleet.shared_p999;
          Pct w.Fleet.exclusive_p99;
          Pct w.Fleet.exclusive_p999;
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
          (pct (min_of (fun w -> w.Fleet.shared_p99)))
          (pct (max_of (fun w -> w.Fleet.shared_p99)));
        Printf.sprintf "shared p99.9 range %s..%s (paper ~2%%..10%%)"
          (pct (min_of (fun w -> w.Fleet.shared_p999)))
          (pct (max_of (fun w -> w.Fleet.shared_p999)));
        Printf.sprintf "exclusive ~%s / %s (paper ~0.2%% / 0.5%%)"
          (pct (max_of (fun w -> w.Fleet.exclusive_p99)))
          (pct (max_of (fun w -> w.Fleet.exclusive_p999)));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let run_table3 _ =
  let rows =
    List.map
      (fun i ->
        [
          Text i.Instances.name;
          Text i.Instances.cpu.Bm_hw.Cpu_spec.model;
          Int i.Instances.vcpus;
          Text (string_of_int i.Instances.mem_gb ^ "GB");
          Text (si i.Instances.net_pps ^ "pps / " ^ f1 i.Instances.net_gbit_s ^ "Gbit");
          Text (si i.Instances.storage_iops ^ " IOPS");
          Int i.Instances.max_boards_per_server;
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

let run_fig7 ctx =
  let spec_on guest = on_guest ctx guest Spec_cint.run in
  let physical = spec_on (fun tb -> Testbed.physical tb) in
  let bm = spec_on bm_guest in
  let vm = spec_on vm_guest in
  let bm_rel = Spec_cint.relative ~baseline:physical bm in
  let vm_rel = Spec_cint.relative ~baseline:physical vm in
  let rows =
    List.map
      (fun (bench, bm_score) ->
        let vm_score = List.assoc bench vm_rel in
        [ Text bench; F3 1.0; F3 bm_score; F3 vm_score ])
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

let run_fig8 ({ quick; _ } as ctx) =
  let elements = if quick then 20_000_000 else 200_000_000 in
  let runs = if quick then 3 else 10 in
  let stream_on guest =
    on_guest ctx guest (fun sim inst -> Stream.run sim inst ~elements ~runs ())
  in
  (* 16 STREAM threads stay on one NUMA node: single-socket baseline. *)
  let physical = stream_on (fun tb -> Testbed.physical ~sockets:1 tb) in
  let bm = stream_on bm_guest in
  let vm = stream_on vm_guest in
  let find kernel results = List.find (fun r -> r.Stream.kernel = kernel) results in
  let rows =
    List.map
      (fun kernel ->
        let p = find kernel physical and b = find kernel bm and v = find kernel vm in
        [
          Text (Stream.kernel_name kernel);
          F1 p.Stream.best_gb_s;
          F1 b.Stream.best_gb_s;
          F1 v.Stream.best_gb_s;
          Pct (v.Stream.best_gb_s /. b.Stream.best_gb_s);
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

let run_fig9 ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 40.0 else Simtime.ms 400.0 in
  let pps_of pair =
    on_pair ctx pair (fun sim src dst ->
        Netperf.udp_pps sim ~src ~dst ~senders:2 ~batch:32 ~duration ())
  in
  let bm = pps_of bm_pair in
  let vm = pps_of vm_pair in
  let row name (r : Netperf.pps_result) =
    [
      Text name;
      Si r.Netperf.received_pps;
      Si r.Netperf.offered_pps;
      Si r.Netperf.jitter_pps;
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
        Printf.sprintf "measured: bm %s, vm %s" (si bm.Netperf.received_pps)
          (si vm.Netperf.received_pps);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 10: latency *)

let run_fig10 ({ quick; _ } as ctx) =
  let count = if quick then 400 else 2000 in
  let lat pair path =
    on_pair ctx pair (fun sim a b -> Sockperf.ping_pong sim ~a ~b ~path ~count ())
  in
  let row name path =
    let bm = lat bm_pair path and vm = lat vm_pair path in
    [
      Text name;
      F1 bm.Sockperf.avg_us;
      F1 vm.Sockperf.avg_us;
      F1 bm.Sockperf.p99_us;
      F1 vm.Sockperf.p99_us;
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

let run_fig11 ({ seed; quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 300.0 else Simtime.sec 4.0 in
  let fio_on guest pattern =
    on_guest ctx guest (fun sim inst ->
        Fio.run sim (Rng.create ~seed:(seed + 7)) inst ~pattern ~duration ())
  in
  let row name pattern =
    let b = fio_on bm_guest pattern and v = fio_on vm_guest pattern in
    [
      Text name;
      F1 b.Fio.avg_us;
      F1 v.Fio.avg_us;
      F1 (v.Fio.avg_us /. b.Fio.avg_us);
      F1 b.Fio.p999_us;
      F1 v.Fio.p999_us;
      F1 (v.Fio.p999_us /. b.Fio.p999_us);
      Si b.Fio.iops;
      Si v.Fio.iops;
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

let run_fig12 ({ quick; _ } as ctx) =
  let concurrencies = if quick then [ 100; 400 ] else [ 50; 100; 200; 400; 800 ] in
  let per_level = if quick then 60 else 150 in
  let run_level guest concurrency =
    client_server ctx guest
      ~serve:(fun server -> Nginx.serve server ())
      (fun sim ~client ~server ->
        Nginx.ab sim ~client ~server ~concurrency ~requests:(concurrency * per_level))
  in
  let rows =
    List.map
      (fun c ->
        let bm = run_level bm_guest c in
        let vm = run_level vm_guest c in
        [
          Int c;
          Si bm.Nginx.rps;
          Si vm.Nginx.rps;
          Pct ((bm.Nginx.rps /. vm.Nginx.rps) -. 1.0);
          F2 bm.Nginx.avg_ms;
          F2 vm.Nginx.avg_ms;
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

let run_mariadb ~id ~title ~patterns ~paper_notes ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 200.0 else Simtime.sec 2.0 in
  let sysbench guest pattern =
    client_server ctx guest ~serve:Mariadb.serve (fun sim ~client ~server ->
        Mariadb.sysbench sim ~client ~server ~pattern ~duration ())
  in
  let rows =
    List.map
      (fun pattern ->
        let bm = sysbench bm_guest pattern in
        let vm = sysbench vm_guest pattern in
        [
          Text (Mariadb.pattern_name pattern);
          Si bm.Mariadb.qps;
          Si vm.Mariadb.qps;
          Pct ((bm.Mariadb.qps /. vm.Mariadb.qps) -. 1.0);
          F2 bm.Mariadb.avg_ms;
          F2 vm.Mariadb.avg_ms;
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

(* redis-benchmark GETs against a bm-guest, then against a vm-guest. *)
let redis_pair ctx ~clients ~value_bytes ~requests =
  let run guest =
    client_server ctx guest ~serve:Redis_bench.serve (fun sim ~client ~server ->
        Redis_bench.benchmark sim ~client ~server ~clients ~value_bytes ~requests ())
  in
  let bm = run bm_guest in
  let vm = run vm_guest in
  (bm, vm)

let redis_row label (bm, vm) =
  [
    label;
    Si bm.Redis_bench.rps;
    Si vm.Redis_bench.rps;
    Pct ((bm.Redis_bench.rps /. vm.Redis_bench.rps) -. 1.0);
  ]

let run_fig15 ({ quick; _ } as ctx) =
  let clients_list = if quick then [ 1000; 4000 ] else [ 1000; 2000; 4000; 7000; 10000 ] in
  let requests = if quick then 8_000 else 40_000 in
  let rows =
    List.map
      (fun clients -> redis_row (Int clients) (redis_pair ctx ~clients ~value_bytes:64 ~requests))
      clients_list
  in
  {
    id = "fig15";
    title = "Fig. 15: Redis requests/s vs number of clients (GET, 64B)";
    header = [ "clients"; "bm RPS"; "vm RPS"; "bm adv" ];
    rows;
    notes = [ "Paper: bm 20-40% more requests/s across 1K..10K clients." ];
  }

let run_fig16 ({ quick; _ } as ctx) =
  let sizes = if quick then [ 4; 1024 ] else [ 4; 16; 64; 256; 1024; 4096 ] in
  let requests = if quick then 8_000 else 40_000 in
  let results =
    List.map
      (fun value_bytes -> (value_bytes, redis_pair ctx ~clients:1000 ~value_bytes ~requests))
      sizes
  in
  let rows =
    List.map
      (fun (value_bytes, pair) -> redis_row (Text (string_of_int value_bytes ^ "B")) pair)
      results
  in
  (* Curve smoothness: mean absolute second difference over the mean —
     zero for any straight trend, large for a wobbly curve. *)
  let roughness take =
    let xs = List.map (fun (_, (bm, vm)) -> take bm vm) results in
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
          (pct bm_cv) (pct vm_cv);
      ];
  }

(* ------------------------------------------------------------------ *)
(* §2.3: nested virtualization *)

let run_sec2_3 ({ seed; quick; _ } as ctx) =
  let vm_on tb config = Kvm.create_vm (Testbed.vm_host tb) { config with Kvm.host_load = 0.0 } in
  let exec_time nested =
    let tb = testbed ctx in
    let vm = vm_on tb { (Kvm.default_config ~name:"vm") with Kvm.nested } in
    in_fiber tb (fun () ->
        let t0 = Sim.clock () in
        vm.Instance.exec_ns 10e6;
        Sim.clock () -. t0)
  in
  let io_lat nested =
    let tb = testbed ~storage_kind:Bm_cloud.Blockstore.Local_ssd ctx in
    let blk_limits = Bm_cloud.Limits.unlimited_blk () in
    let vm = vm_on tb { (Kvm.default_config ~name:"vm") with Kvm.nested; blk_limits } in
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
        [ Text "CPU work (same job)"; F2 1.0; F2 (t_nested /. t_plain); Pct cpu_eff; Text "~80%" ];
        [
          Text "fio IOPS (CPU-path bound)";
          Si iops_plain;
          Si iops_nested;
          Pct (iops_nested /. iops_plain);
          Text "~25% for I/O-intensive";
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
          Text "sellable HT per rack slot";
          Int d.Cost_model.vm_sellable_ht;
          Int d.Cost_model.bm_sellable_ht;
          Text "88 vs 256";
        ];
        [ Text "TDP W/vCPU (96HT shape)"; F2 vm_w; F2 bm_w; Text "3.06 vs 3.17" ];
        [
          Text "relative sell price";
          F2 1.0;
          F2 Cost_model.price_ratio_bm_over_vm;
          Text "bm 10% lower";
        ];
      ];
    notes =
      [
        Printf.sprintf "density ratio %.2fx" (Cost_model.sellable_ht_per_rack_ratio ());
      ];
  }

(* ------------------------------------------------------------------ *)
(* §4.3 network: TCP throughput + unrestricted PPS *)

let run_sec4_3net ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 30.0 else Simtime.ms 300.0 in
  (* Cross-server throughput at the 10 Gbit/s cap. *)
  let tcp pair =
    on_pair ctx pair (fun sim src dst -> Netperf.tcp_stream sim ~src ~dst ~duration ())
  in
  let bm_tp = tcp xhost_bm_pair in
  let vm_tp = tcp xhost_vm_pair in
  (* Unrestricted PPS on the bm pair. *)
  let free =
    on_pair ctx (bm_pair ~net_limits:(Bm_cloud.Limits.unlimited_net ())) (fun sim src dst ->
        Netperf.udp_pps sim ~src ~dst ~senders:12 ~batch:64
          ~duration:(if quick then Simtime.ms 20.0 else Simtime.ms 200.0)
          ())
  in
  {
    id = "sec4_3net";
    title = "S4.3: TCP throughput at the limit; unrestricted PPS";
    header = [ "metric"; "bm-guest"; "vm-guest"; "paper" ];
    rows =
      [
        [
          Text "TCP payload throughput (Gbit/s)";
          F2 bm_tp.Netperf.payload_gbit_s;
          F2 vm_tp.Netperf.payload_gbit_s;
          Text "9.6 vs 9.59";
        ];
        [
          Text "unrestricted UDP PPS";
          Si free.Netperf.received_pps;
          Text "-";
          Text "16M (limit lifted)";
        ];
      ];
    notes =
      [
        Printf.sprintf "wire rates: bm %.2f / vm %.2f Gbit/s (the token bucket meters the wire)"
          bm_tp.Netperf.gbit_s vm_tp.Netperf.gbit_s;
      ];
  }

(* ------------------------------------------------------------------ *)
(* §4.3 storage: unrestricted local SSD *)

let run_sec4_3blk ({ seed; quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 100.0 else Simtime.ms 800.0 in
  let unlimited () = Bm_cloud.Limits.unlimited_blk () in
  let randread guest ~iodepth ~block_bytes =
    on_guest ~storage_kind:Bm_cloud.Blockstore.Local_ssd ctx guest (fun sim inst ->
        Fio.run sim (Rng.create ~seed) inst ~jobs:8 ~iodepth ~block_bytes ~pattern:Fio.Randread
          ~duration ())
  in
  let small guest = randread guest ~iodepth:2 ~block_bytes:4096 in
  let big guest = randread guest ~iodepth:4 ~block_bytes:(256 * 1024) in
  let bm_mk tb = bm_guest ~blk_limits:(unlimited ()) tb in
  let vm_mk tb = vm_guest ~blk_limits:(unlimited ()) tb in
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
          Text "4KB randread IOPS";
          Si bm_small.Fio.iops;
          Si vm_small.Fio.iops;
          Pct ((bm_small.Fio.iops /. vm_small.Fio.iops) -. 1.0);
          Text "+50%";
        ];
        [
          Text "256KB read bandwidth (GB/s)";
          F2 (bw bm_big (256 * 1024));
          F2 (bw vm_big (256 * 1024));
          Pct ((bw bm_big (256 * 1024) /. bw vm_big (256 * 1024)) -. 1.0);
          Text "+100%";
        ];
        [
          Text "4KB average latency (us)";
          F1 bm_small.Fio.avg_us;
          F1 vm_small.Fio.avg_us;
          Text "-";
          Text "bm ~60us";
        ];
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* §6: ASIC IO-Bond ablation *)

let run_sec6 ({ quick; _ } as ctx) =
  let count = if quick then 300 else 1500 in
  let fpga_probe, accesses = probe ctx Bm_iobond.Profile.Fpga in
  let asic_probe, _ = probe ctx Bm_iobond.Profile.Asic in
  let fpga_lat = kernel_ping ctx ~count Bm_iobond.Profile.Fpga in
  let asic_lat = kernel_ping ctx ~count Bm_iobond.Profile.Asic in
  {
    id = "sec6";
    title = "S6: IO-Bond FPGA vs projected ASIC";
    header = [ "metric"; "FPGA"; "ASIC"; "paper" ];
    rows =
      [
        [
          Text "PCI register hop (us)";
          F1 (hop_us Bm_iobond.Profile.Fpga);
          F1 (hop_us Bm_iobond.Profile.Asic);
          Text "0.8 -> 0.2 (75% cut)";
        ];
        [
          Text (Printf.sprintf "virtio probe, %d accesses (us)" accesses);
          F1 (fpga_probe /. 1e3);
          F1 (asic_probe /. 1e3);
          Text "4x faster config path";
        ];
        [ Text "UDP one-way latency (us)"; F1 fpga_lat; F1 asic_lat; Text "shorter data path" ];
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out. *)

(* How much does IO-Bond's register latency matter? Sweep the per-hop
   cost (the FPGA -> ASIC axis, extended) against the two things it
   touches: the emulated config path and end-to-end message latency. *)
let run_ablation_reg ({ quick; _ } as ctx) =
  let count = if quick then 200 else 1000 in
  let row profile =
    let probe_ns, _ = probe ctx profile in
    let lat = kernel_ping ctx ~count profile in
    [ Text (Bm_iobond.Profile.name profile); F1 (hop_us profile); F1 (probe_ns /. 1e3); F1 lat ]
  in
  let fpga = row Bm_iobond.Profile.Fpga in
  let asic = row Bm_iobond.Profile.Asic in
  {
    id = "ablation_reg";
    title = "Ablation: IO-Bond register-hop latency (config path vs data path)";
    header = [ "profile"; "hop (us)"; "virtio probe (us)"; "UDP one-way (us)" ];
    rows = [ fpga; asic ];
    notes =
      [
        "The config path scales with the hop 1:1; the data path only carries the";
        "doorbell and tail-register hops, so cutting the hop 4x buys far less there —";
        "why the paper runs production on the cheap FPGA.";
      ];
  }

(* How big must the DMA engine be? The paper picked 50 Gbit/s; sweep it
   against unrestricted guest throughput. *)
let run_ablation_dma ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 15.0 else Simtime.ms 80.0 in
  let tput dma_gbit_s =
    let tb = testbed ctx in
    let server = base_server ~dma_gbit_s tb in
    let net_limits = Bm_cloud.Limits.unlimited_net () in
    let a = provision ~net_limits server "a" and b = provision ~net_limits server "b" in
    let r =
      Netperf.tcp_stream tb.Testbed.sim ~src:a ~dst:b ~connections:32
        ~message_bytes:8192 ~duration ()
    in
    r.Netperf.gbit_s
  in
  let rows =
    List.map
      (fun g -> [ Text (Printf.sprintf "%g Gbit/s" g); F2 (tput g) ])
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
let run_ablation_batch ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 15.0 else Simtime.ms 80.0 in
  let pps batch =
    on_pair ctx (bm_pair ~net_limits:(Bm_cloud.Limits.unlimited_net ())) (fun sim src dst ->
        (Netperf.udp_pps sim ~src ~dst ~senders:8 ~batch ~duration ()).Netperf.received_pps)
  in
  let rows =
    List.map (fun b -> [ Int b; Si (pps b) ]) [ 1; 4; 16; 64 ]
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
let run_ablation_offload ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 15.0 else Simtime.ms 80.0 in
  let run offload =
    let tb = testbed ctx in
    let server = base_server tb in
    let net_limits = Bm_cloud.Limits.unlimited_net () in
    let guest = provision ~net_limits ~offload server in
    let a = guest "a" and b = guest "b" in
    let r = Netperf.udp_pps tb.Testbed.sim ~src:a ~dst:b ~senders:10 ~batch:64 ~duration () in
    let base_util =
      Bm_hw.Cores.utilization (Bm_hypervisor.base_cores server)
        ~now:(Sim.now tb.Testbed.sim)
    in
    let hit_rate =
      match Bm_hypervisor.offload_table server ~name:"a" with
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
        [ Text "PMD only (deployed)"; Si pps_off; Pct util_off; Text "-" ];
        [ Text "IO-Bond offload (S6)"; Si pps_on; Pct util_on; Pct hit_rate ];
      ];
    notes =
      [
        "Offloaded flows skip the bm-hypervisor's per-packet CPU: the base server";
        "could use a lower-cost CPU, which is exactly the stated motivation in S6.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Availability under injected faults *)

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

let run_availability ({ seed; quick; faults; _ } as ctx) =
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
  (* [workers] guest fibers issue sequential 4 KiB reads until the plan
     horizon, then the run drains to quiescence, so every request issued
     before the horizon completes. Completion times, ascending. *)
  let stream ?faults guest =
    let tb = testbed ?faults ctx in
    let inst = guest tb in
    let completions = ref [] in
    for _ = 1 to workers do
      Sim.spawn tb.Testbed.sim (fun () ->
          while Sim.clock () < horizon do
            ignore (inst.Instance.blk ~op:`Read ~bytes_:4096);
            completions := Sim.clock () :: !completions
          done)
    done;
    Testbed.run tb;
    List.sort compare !completions
  in
  let clean_bm = stream bm_guest in
  let clean_vm = stream vm_guest in
  let goodput fault clean =
    float_of_int (List.length fault) /. float_of_int (max 1 (List.length clean))
  in
  let row label (plan : Fault.plan) completions clean =
    let gaps = gaps_of completions in
    [
      Text label;
      Int (List.length plan.Fault.events);
      F1 (mean (mttr_of plan completions) /. 1e3);
      F1 (percentile gaps 0.99 /. 1e3);
      F1 (percentile gaps 1.0 /. 1e3);
      Pct (goodput completions clean);
    ]
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
        row (Fault.kind_name kind) sub (stream ~faults:sub bm_guest) clean_bm)
      kinds
  in
  (* The full plan at once, bm vs vm: the paper's density argument only
     holds if a board full of faults degrades no worse than a host. *)
  let fault_bm = stream ~faults:plan bm_guest in
  let fault_vm = stream ~faults:plan vm_guest in
  (* Base-server failure: measure the blackout a surviving board's
     live migration would pay, for the notes below. *)
  let live_blackout_ns =
    let tb = testbed ctx in
    let inst = bm_guest tb in
    in_fiber tb (fun () ->
        match Live_migration.inject tb.Testbed.sim (Rng.split tb.Testbed.rng) inst with
        | Error _ -> None
        | Ok injected -> (
          match Live_migration.migrate injected ~dirty_rate_gb_s:1.0 ~mem_gb:16 () with
          | Error _ -> None
          | Ok s -> Some s.Live_migration.blackout_ns))
  in
  {
    id = "availability";
    title = "Availability: MTTR, blackout and goodput under injected faults";
    header = [ "fault plan"; "events"; "avg MTTR (us)"; "p99 gap (us)"; "max gap (us)"; "goodput" ];
    rows =
      kind_rows
      @ [
          row "all faults (bm-guest)" plan fault_bm clean_bm;
          row "all faults (vm-guest)" plan fault_vm clean_vm;
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
          Text label;
          Int (List.length outcomes);
          Int to_bm;
          Int to_vm;
          Int stranded;
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
let run_overload ({ quick; faults; _ } as ctx) =
  let open Bm_cloud in
  let net_duration = if quick then Simtime.ms 8.0 else Simtime.ms 60.0 in
  let blk_duration = if quick then Simtime.ms 40.0 else Simtime.ms 250.0 in
  let multipliers = [ 0.5; 1.0; 2.0; 4.0 ] in
  let net_ceiling = 4e6 and blk_ceiling = 25e3 in
  let policy bounded = if bounded then Limits.Shed else Limits.Block in
  let net_run ?faults kind bounded mult =
    let net_limits = Limits.cloud_net ~policy:(policy bounded) () in
    let tb = testbed ?faults ctx in
    let src, dst =
      match kind with `Bm -> bm_pair ~net_limits tb | `Vm -> vm_pair ~net_limits tb
    in
    Overload.udp_flood tb.Testbed.sim ~src ~dst ~offered_pps:(mult *. net_ceiling)
      ~duration:net_duration ()
  in
  let blk_run ?faults kind bounded mult =
    let blk_limits = Limits.cloud_blk ~policy:(policy bounded) () in
    let tb = testbed ?faults ctx in
    let inst =
      match kind with `Bm -> bm_guest ~blk_limits tb | `Vm -> vm_guest ~blk_limits tb
    in
    Overload.blk_flood tb.Testbed.sim ~inst ~offered_iops:(mult *. blk_ceiling)
      ~duration:blk_duration ()
  in
  let sweep run =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun bounded ->
            List.map (fun m -> ((kind, bounded, m), run kind bounded m)) multipliers)
          [ false; true ])
      [ `Bm; `Vm ]
  in
  let net_results = sweep net_run in
  let blk_results = sweep blk_run in
  (* One row per (path, guest, admission, load) point: offered and
     delivered rate, what admission refused, and schedule latency. *)
  let row path ?(label_extra = "") (kind, bounded, mult)
      (offered, goodput, refused, p50, p99, lag) =
    [
      Text (path ^ (match kind with `Bm -> " bm" | `Vm -> " vm") ^ label_extra);
      Text (if bounded then "bounded" else "blocking");
      Text (Printf.sprintf "%.1fx" mult);
      Si offered;
      Si goodput;
      Si (float_of_int refused);
      F1 p50;
      F1 p99;
      F1 lag;
    ]
  in
  let net_row ?label_extra (point, (r : Overload.net_result)) =
    row "net" ?label_extra point
      Overload.(r.offered_pps, r.goodput_pps, r.shed, r.p50_us, r.p99_us, r.max_lag_ms)
  in
  let blk_row ?label_extra (point, (r : Overload.blk_result)) =
    row "blk" ?label_extra point
      Overload.
        (r.offered_iops, r.goodput_iops, r.rejected, r.blk_p50_us, r.blk_p99_us, r.blk_max_lag_ms)
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
          (si (net_at true).Overload.goodput_pps)
          (f1 (net_at true).Overload.p99_us)
          (f1 (net_at false).Overload.p99_us)
          (f1 (net_at false).Overload.max_lag_ms);
        Printf.sprintf
          "blk bm at 4x: bounded goodput %s IOPS (p99 %s us); blocking p99 %s us"
          (si (blk_at true).Overload.goodput_iops)
          (f1 (blk_at true).Overload.blk_p99_us)
          (f1 (blk_at false).Overload.blk_p99_us);
        (match faults with
        | Some _ -> "soak rows: same flood with the fault plan armed (recovery under pressure)."
        | None -> "pass --faults SEED:SPEC to add the combined faults+overload soak rows.");
      ];
  }

(* ------------------------------------------------------------------ *)
(* Cross-host experiments: traffic over the link-level fabric *)

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
      (pct s.utilization) (f1 s.depth_p99)
      (si (float_of_int s.delivered_pkts))
      (si (float_of_int s.dropped_pkts))

let run_xhost_rr ({ quick; _ } as ctx) =
  let count = if quick then 400 else 2000 in
  let rr tb (a, b) = Netperf.tcp_rr tb.Testbed.sim ~src:a ~dst:b ~count () in
  (* On-host baseline: the pre-fabric fast path, same server. *)
  let tb0 = testbed ctx in
  let on_host = rr tb0 (bm_pair tb0) in
  let tb1 = testbed ~topology:(topo_idle ctx) ctx in
  let idle = rr tb1 (xhost_bm_pair tb1) in
  let net1 = Option.get tb1.Testbed.net in
  (* Same racks, one undersized spine, on/off cross traffic sharing the
     request path: queueing delay without drops (trains of 30 bursts
     stay under the 64-burst queues). *)
  let topo_hot = Topology.clos ~hosts:2 ~tors:2 ~spines:1 ~spine_gbit_s:10.0 () in
  let tb2 = testbed ~topology:topo_hot ctx in
  let bm_pair2 = xhost_bm_pair tb2 in
  let net2 = Option.get tb2.Testbed.net in
  background_trains tb2.Testbed.sim net2 ~src_host:0 ~dst_host:1 ~burst_bytes:15_000
    ~burst_count:10 ~train:30 ~period:(Simtime.us 500.0)
    ~until:(if quick then Simtime.ms 150.0 else Simtime.ms 600.0);
  let hot = rr tb2 bm_pair2 in
  (* vm-guests across the same idle fabric. *)
  let tb3 = testbed ~topology:(topo_idle ctx) ctx in
  let vm_idle = rr tb3 (xhost_vm_pair tb3) in
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
      Text label;
      Int r.Netperf.transactions;
      Si r.Netperf.per_s;
      F1 r.Netperf.rtt_p50_us;
      F1 r.Netperf.rtt_p99_us;
      F1 r.Netperf.rtt_p999_us;
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
        check
          ~paper:(F1 expected_delta_us)
          ~measured:(F1 measured_delta_us)
          ~ok:
            (within ~tolerance:0.1 ~target:expected_delta_us measured_delta_us)
          [ Text "idle RTT delta vs on-host (us)"; Text "-"; Text "-" ];
        check ~paper:(Text ">= 2x idle")
          ~measured:(F1 hot.Netperf.rtt_p99_us)
          ~ok:(hot.Netperf.rtt_p99_us >= 2.0 *. idle.Netperf.rtt_p99_us)
          [ Text "hot-spine p99 inflation (us)"; Text "-"; Text "-" ];
      ];
    notes =
      [
        Printf.sprintf "idle topology: %s" (Topology.render (Fabric.topology net1));
        Printf.sprintf "expected idle delta = 2 x (one-way path latency + remote vswitch cost)";
        Printf.sprintf "hot spine: %s" (link_note net2 ~now:(Sim.now tb2.Testbed.sim));
      ];
  }

let run_xhost_stream ({ quick; _ } as ctx) =
  let duration = if quick then Simtime.ms 30.0 else Simtime.ms 300.0 in
  let stream tb (a, b) = Netperf.tcp_stream tb.Testbed.sim ~src:a ~dst:b ~duration () in
  let bm_cell topology =
    let tb = testbed ~topology ctx in
    let r = stream tb (xhost_bm_pair tb) in
    (r, Option.get tb.Testbed.net, Sim.now tb.Testbed.sim)
  in
  let idle, net_idle, now_idle = bm_cell (topo_idle ctx) in
  (* The guests' 10 Gbit/s cap funnelled through a 5 Gbit/s spine: the
     ToR uplink queue fills and drop-tails — loss, not backpressure. *)
  let hot, net_hot, now_hot =
    bm_cell (Topology.clos ~hosts:2 ~tors:2 ~spines:1 ~spine_gbit_s:5.0 ())
  in
  let vm_idle =
    let tb = testbed ~topology:(topo_idle ctx) ctx in
    stream tb (xhost_vm_pair tb)
  in
  let row label (r : Netperf.throughput_result) =
    [
      Text label;
      F2 r.Netperf.payload_gbit_s;
      F2 r.Netperf.gbit_s;
      Si (float_of_int r.Netperf.messages);
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
        check ~paper:(Text "~9.6 (rate cap)")
          ~measured:(F2 idle.Netperf.payload_gbit_s)
          ~ok:(idle.Netperf.payload_gbit_s >= 8.5)
          [ Text "idle spine carries the rate cap" ];
        check ~paper:(Text "< 5.0 + drops")
          ~measured:(F2 hot.Netperf.payload_gbit_s)
          ~ok:(hot.Netperf.payload_gbit_s < 5.0 && Fabric.dropped net_hot > 0)
          [ Text "oversubscribed spine sheds load" ];
      ];
    notes =
      [
        Printf.sprintf "idle: %s" (link_note net_idle ~now:now_idle);
        Printf.sprintf "hot:  %s" (link_note net_hot ~now:now_hot);
        Printf.sprintf "hot fabric conservation: injected %d = delivered %d + dropped %d"
          (Fabric.injected net_hot) (Fabric.delivered net_hot) (Fabric.dropped net_hot);
      ];
  }

let run_xhost_migrate ({ seed; quick; topo; _ } as ctx) =
  let mem_gb = if quick then 4 else 16 in
  let dirty = 2.0 in
  let migrate_in tb bm via =
    in_fiber tb (fun () ->
        match Live_migration.inject tb.Testbed.sim (Rng.create ~seed:(seed + 1)) bm with
        | Error e -> failwith e
        | Ok inj -> (
          match Live_migration.migrate inj ?via ~dirty_rate_gb_s:dirty ~mem_gb () with
          | Error e -> failwith e
          | Ok s -> s))
  in
  (* Analytic dedicated link — the pre-fabric model. *)
  let analytic =
    let tb = testbed ctx in
    let bm = bm_guest tb in
    migrate_in tb bm None
  in
  let fabric_cell ~flood =
    let topology = Option.value topo ~default:(Topology.two_host ()) in
    let tb = testbed ~topology ctx in
    let bm = bm_guest tb in
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
      Text label;
      Int s.Live_migration.precopy_rounds;
      F2 (s.Live_migration.bytes_copied /. 1e9);
      F2 (s.Live_migration.blackout_ns /. 1e6);
      F2 (s.Live_migration.total_ns /. 1e9);
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
        check ~paper:(Text "= analytic")
          ~measured:(F2 (idle.Live_migration.total_ns /. 1e9))
          ~ok:
            (within ~tolerance:0.1 ~target:analytic.Live_migration.total_ns
               idle.Live_migration.total_ns)
          [ Text "idle fabric matches dedicated link"; Text "-" ];
        check ~paper:(Text "> idle")
          ~measured:(F2 (contended.Live_migration.total_ns /. 1e9))
          ~ok:(contended.Live_migration.total_ns > 1.2 *. idle.Live_migration.total_ns)
          [ Text "contention stretches the copy"; Text "-" ];
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
        check
          ~paper:(Int cfg.guests)
          ~measured:(Int (Fleet.Live.placed live))
          ~ok:(Fleet.Live.placed live = cfg.guests)
          [ Text "all guests placed at build" ];
        check ~paper:(Int 0)
          ~measured:(Int (List.length violations))
          ~ok:(violations = [])
          [ Text "anti-affinity violations" ];
        check
          ~paper:(Text (Printf.sprintf "<= %s" (pct cfg.Fleet.Live.host_ceiling)))
          ~measured:(Pct max_util)
          ~ok:(max_util <= cfg.Fleet.Live.host_ceiling +. 1e-9)
          [ Text "max per-host utilization" ];
        check ~paper:(Text "0 stranded")
          ~measured:
            (Text
               (Printf.sprintf "%d/%d re-placed" evac.Fleet.Live.replaced evac.Fleet.Live.victims))
          ~ok:(evac.Fleet.Live.stranded = 0 && evac.Fleet.Live.replaced = evac.Fleet.Live.victims)
          [ Text "mass evacuation" ];
        check ~paper:(Int 0)
          ~measured:(Int (Fabric.dropped net))
          ~ok:(Fabric.dropped net = 0)
          [ Text "fabric drops (flows + pre-copy)" ];
        check
          ~paper:(Int cfg.guests)
          ~measured:(Text (Printf.sprintf "%d placed + %d stranded" placed_now stranded_now))
          ~ok:(placed_now + stranded_now = cfg.guests)
          [ Text "guest conservation" ];
        check ~paper:(Text "3.82%")
          ~measured:(Pct survey.Fleet.over_10k)
          ~ok:(within ~tolerance:0.5 ~target:0.0382 survey.Fleet.over_10k)
          [ Text "Table 2 > 10K exits/s, live population" ];
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
          (pct survey.Fleet.over_50k) (pct survey.Fleet.over_100k);
        tenant_table ~title:"tenant metering (first 5)"
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

(* "met/tenants" for one tier of a scenario outcome. *)
let tier_met tier o =
  let ss = by_tier tier o in
  Text (Printf.sprintf "%d/%d" (met ss) (List.length ss))

(* The context's scenario timeline (the committed game day at its seed
   by default), run once per arm: open loop for [None], closed around
   the given policy otherwise. The arms share nothing (each builds its
   own fleet from the spec), so they run on up to [ctx.jobs] domains and
   join in input order, byte-identical to the sequential sweep. *)
let scenario_arms ({ seed; quick; trace; metrics; scenario; jobs; _ } : ctx) arms =
  let spec = match scenario with Some s -> s | None -> Scenario.default_spec ~seed () in
  let fleet = if quick then Fleet.Live.quick_config else Fleet.Live.default_config in
  let arm policy = Scenario.run ?trace ?metrics ~degrade:(policy <> None) ?policy ~fleet spec in
  (spec, Parallel.map ~jobs:(min jobs (List.length arms)) arm arms)

let run_game_day ({ policy; _ } as ctx) =
  let kind = Option.value policy ~default:Bm_cloud.Policy.Ladder in
  (* The same timeline twice: open loop, then with the degradation
     policy closed around it. The scorecard delta is the experiment. *)
  let spec, off, on =
    match scenario_arms ctx [ None; Some kind ] with
    | spec, [ off; on ] -> (spec, off, on)
    | _ -> assert false
  in
  let tier_row tier =
    [
      Text (Bm_cloud.Slo.tier_name tier);
      Int (List.length (by_tier tier on));
      tier_met tier off;
      tier_met tier on;
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
        check ~paper:(Text "degradation helps")
          ~measured:(Text (Printf.sprintf "%d -> %d tenants met" off.Scenario.met on.Scenario.met))
          ~ok:improved
          [ Text "some tier gains SLO compliance" ];
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
let run_policy_race ctx =
  let spec, open_loop, entrants =
    match scenario_arms ctx (None :: List.map Option.some Bm_cloud.Policy.all) with
    | spec, open_loop :: entrants -> (spec, open_loop, entrants)
    | _, [] -> assert false
  in
  let gold_met o = met (by_tier Bm_cloud.Slo.Gold o) in
  let row label (o : Scenario.outcome) =
    [
      Text label;
      Int o.Scenario.met;
      tier_met Bm_cloud.Slo.Gold o;
      tier_met Bm_cloud.Slo.Silver o;
      tier_met Bm_cloud.Slo.Bronze o;
      Int o.Scenario.max_stage;
      Int o.Scenario.stage_actions;
      Int o.Scenario.evacuated_guests;
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
          check ~paper:(Text ">= ladder")
            ~measured:
              (Text
                 (Printf.sprintf "%s: %d met (ladder %d)" best.Scenario.policy best.Scenario.met
                    ladder.Scenario.met))
            ~ok:(best.Scenario.met >= ladder.Scenario.met)
            [ Text "winner at least matches the ladder"; Text "-"; Text "-"; Text "-"; Text "-" ];
        ];
    notes =
      Scenario.render spec
      :: Printf.sprintf "ranking: SLOs met, Gold met breaking ties; same seed for every row"
      :: open_loop.Scenario.scorecard
      :: List.map (fun (o : Scenario.outcome) -> o.Scenario.scorecard) ranked;
  }

(* ------------------------------------------------------------------ *)
(* SR-IOV virtual functions: scale sweep, hot-reassignment, ablation *)

let percentile_of sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

(* A raw SR-IOV device on the testbed, before any hypervisor is
   involved, and one VF of it attached to [owner]. *)
let vf_device tb ~vfs ~queues_per_vf =
  Vf.create_device ~obs:tb.Testbed.obs ~fault:tb.Testbed.fault tb.Testbed.sim
    ~profile:Bm_iobond.Profile.Fpga ~vfs ~queues_per_vf ()

let attach dev owner = match Vf.attach dev ~owner () with Ok f -> f | Error e -> failwith e

(* One guest per VF, Poisson arrivals per queue, raw device — the
   arbitration model in isolation, before any hypervisor is involved. *)
let run_vf_scale ({ quick; faults; jobs; vfs; _ } as ctx) =
  let vfs_list =
    match vfs with Some n -> [ n ] | None -> if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ]
  in
  let queues_list = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let per_vf = if quick then 300 else 1500 in
  let cells = List.concat_map (fun v -> List.map (fun q -> (v, q)) queues_list) vfs_list in
  let run_cell (vfs, queues) =
    let tb = testbed ?faults ctx in
    let dev = vf_device tb ~vfs ~queues_per_vf:queues in
    let lats = ref [] and delivered = ref 0 and rejected = ref 0 in
    let t_last = ref 0.0 in
    for v = 0 to vfs - 1 do
      let f = attach dev (Printf.sprintf "guest%d" v) in
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
      Int vfs;
      Int queues;
      Int (vfs * per_vf);
      Int !delivered;
      Int !rejected;
      F2 gbit;
      F2 (percentile_of sorted 0.50 /. 1e3);
      F2 (percentile_of sorted 0.99 /. 1e3);
    ]
  in
  (* Cells share nothing — each builds its own testbed — so they fan
     out across [ctx.jobs] domains; the input-order join keeps the table
     byte-identical at any width. *)
  let rows = Parallel.map ~jobs run_cell cells in
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
let run_vf_reassign ({ quick; faults; vfs; _ } as ctx) =
  let vfs = max 2 (Option.value vfs ~default:4) in
  let rounds = if quick then 8 else 32 in
  let per_vf = if quick then 400 else 1600 in
  let tb = testbed ?faults ctx in
  let dev = vf_device tb ~vfs ~queues_per_vf:2 in
  let handles = Array.init vfs (fun v -> attach dev (Printf.sprintf "tenant%d" v)) in
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
        check
          ~paper:(Int rounds)
          ~measured:(Int (Vf.reassignments dev))
          ~ok:(Vf.reassignments dev = rounds - !reassign_errors)
          [ Text "reassignments completed" ];
        check ~paper:(Text "finite")
          ~measured:
            (Text
               (Printf.sprintf "min %s avg %s p99 %s max %s us"
                  (f2 (percentile_of sorted 0.0 /. 1e3))
                  (f2 (avg /. 1e3))
                  (f2 (percentile_of sorted 0.99 /. 1e3))
                  (f2 (percentile_of sorted 1.0 /. 1e3))))
          ~ok:(n_black = Vf.reassignments dev && List.for_all Float.is_finite blackouts)
          [ Text "blackout window" ];
        check ~paper:(Int 0)
          ~measured:(Int lost)
          ~ok:(lost = 0)
          [ Text "completions lost across swaps" ];
        check ~paper:(Int 0)
          ~measured:(Int !dups)
          ~ok:(!dups = 0)
          [ Text "completions duplicated" ];
        check ~paper:(Text "ok") ~measured:(Text conservation) ~ok:(conservation = "ok")
          [ Text "device conservation" ];
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
let run_vf_ablation ({ quick; faults; jobs; vfs; datapath; _ } as ctx) =
  let datapaths =
    match datapath with Some d -> [ d ] | None -> Vf.all_datapaths
  in
  let vfs = Option.value vfs ~default:8 in
  let duration = if quick then Simtime.ms 30.0 else Simtime.ms 300.0 in
  let pings = if quick then 300 else 1500 in
  let bm_on dp tb =
    let server = Testbed.bm_server ~vfs tb in
    (provision ~datapath:dp server "bm0", provision ~datapath:dp server "bm1")
  in
  let vm_on dp tb =
    let host = Testbed.vm_host ~vfs tb in
    let mk name =
      Kvm.create_vm host { (Kvm.default_config ~name) with Kvm.vcpus = 16; datapath = dp }
    in
    (mk "vm0", mk "vm1")
  in
  let cells = List.concat_map (fun dp -> [ (`Bm, dp); (`Vm, dp) ]) datapaths in
  let run_cell (sub, dp) =
    let pair tb = match sub with `Bm -> bm_on dp tb | `Vm -> vm_on dp tb in
    let tb1 = testbed ?faults ctx in
    let a, b = pair tb1 in
    let pps = Netperf.udp_pps tb1.Testbed.sim ~src:a ~dst:b ~senders:2 ~batch:32 ~duration () in
    let tb2 = testbed ?faults ctx in
    let a2, b2 = pair tb2 in
    let lat = Sockperf.ping_pong tb2.Testbed.sim ~a:a2 ~b:b2 ~path:Sockperf.Kernel ~count:pings () in
    [
      Text (match sub with `Bm -> "bm-guest" | `Vm -> "vm-guest");
      Text (Vf.datapath_name dp);
      Si pps.Netperf.received_pps;
      Si pps.Netperf.jitter_pps;
      Int pps.Netperf.dropped;
      F2 lat.Sockperf.avg_us;
      F2 lat.Sockperf.p99_us;
    ]
  in
  (* Each cell builds two private testbeds; they fan out across
     [ctx.jobs] domains and the input-order join keeps the scorecard
     byte-identical. *)
  let rows = Parallel.map ~jobs run_cell cells in
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
   recording from several domains would race, so their presence forces
   everything to one domain. Otherwise the ids spread over [ctx.jobs]
   domains; a lone id gets them all for its arms and cells, and with
   several each runs its own sequentially, so no run uses more than
   [ctx.jobs] domains. Cells share nothing: each builds its own
   simulator, RNG and testbed from the seed, so output is byte-identical
   either way. *)
let run ctx targets =
  let jobs = if ctx.trace = None && ctx.metrics = None then max 1 ctx.jobs else 1 in
  let inner = { ctx with jobs = (match targets with [ _ ] -> jobs | _ -> 1) } in
  let one id =
    match find id with
    | Some spec -> Ok (spec.run inner)
    | None ->
      Error (Printf.sprintf "unknown experiment %S (try: %s)" id (String.concat ", " (ids ())))
  in
  List.combine targets (Parallel.map ~jobs one targets)

let print_outcome (o : outcome) =
  print_endline "";
  Report.print ~title:o.title ~header:o.header (List.map (List.map show) o.rows);
  List.iter (fun n -> print_endline ("  note: " ^ n)) o.notes
