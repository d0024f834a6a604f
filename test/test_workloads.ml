(* Tests for the workload models: each runs a miniature version of the
   paper's benchmark and checks the structural/shape invariants. *)

open Bm_engine
open Bm_guest
open Bm_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Testbed *)

let test_testbed_topologies () =
  let tb = Testbed.make ~seed:1 () in
  let _, a, b = Testbed.bm_pair tb in
  check_bool "distinct endpoints" true (a.Instance.endpoint <> b.Instance.endpoint);
  check_bool "both bare metal" true
    (a.Instance.kind = Instance.Bare_metal Bm_iobond.Profile.Fpga
    && b.Instance.kind = Instance.Bare_metal Bm_iobond.Profile.Fpga);
  let tb2 = Testbed.make ~seed:1 () in
  let _, v1, v2 = Testbed.vm_pair tb2 in
  check_bool "both virtual" true (v1.Instance.kind = Instance.Virtual && v2.Instance.kind = Instance.Virtual)

(* ------------------------------------------------------------------ *)
(* Rpc *)

let test_rpc_roundtrip_and_handshake () =
  let tb = Testbed.make ~seed:2 () in
  let _, server = Testbed.bm_guest tb in
  let client = Testbed.client_box tb in
  Rpc.attach_server server ~service:(fun _ -> { Rpc.reply_bytes = 100; reply_packets = 1 });
  let rpc = Rpc.create_client tb.Testbed.sim client in
  let plain = ref nan and with_hs = ref nan in
  Sim.spawn tb.Testbed.sim (fun () ->
      (match Rpc.call rpc ~dst:server.Instance.endpoint () with
      | `Reply l -> plain := l
      | `Timeout -> Alcotest.fail "plain call timed out");
      (match Rpc.call rpc ~dst:server.Instance.endpoint ~handshake:true () with
      | `Reply l -> with_hs := l
      | `Timeout -> Alcotest.fail "handshake call timed out"));
  Testbed.run tb;
  check_bool "latency positive" true (!plain > 1_000.0);
  (* The handshake adds a full extra round trip. *)
  check_bool "handshake costlier" true (!with_hs > !plain *. 1.5);
  check_int "both completed" 2 (Rpc.calls_completed rpc)

let test_rpc_tag_visible_to_service () =
  let tb = Testbed.make ~seed:2 () in
  let _, server = Testbed.bm_guest tb in
  let client = Testbed.client_box tb in
  let seen = ref [] in
  Rpc.attach_server server ~service:(fun req ->
      seen := req.Bm_virtio.Packet.tag :: !seen;
      { Rpc.reply_bytes = 8; reply_packets = 1 });
  let rpc = Rpc.create_client tb.Testbed.sim client in
  Sim.spawn tb.Testbed.sim (fun () ->
      ignore (Rpc.call rpc ~dst:server.Instance.endpoint ~tag:9 ());
      ignore (Rpc.call rpc ~dst:server.Instance.endpoint ()));
  Testbed.run tb;
  Alcotest.(check (list int)) "tags" [ 0; 9 ] !seen

(* A client whose net bucket sheds under [Shed] loses some SYNs and
   requests outright; only the 100 ms RTO recovers them. Pins the
   retransmission path: the retransmit and shed counts and every call's
   latency, printed with %h. Regenerate by printing [rto_trace ()] —
   update only on an intentional change to the RPC or datapath model. *)
let rto_trace () =
  let tb = Testbed.make ~seed:2020 () in
  let _, server = Testbed.bm_guest tb in
  let net_limits =
    Bm_cloud.Limits.custom_net ~policy:Bm_cloud.Limits.Shed ~pps:10_000.0 ~gbit_s:10.0 ()
  in
  let _, client = Testbed.bm_guest ~net_limits tb in
  Rpc.attach_server server ~service:(fun _ -> { Rpc.reply_bytes = 100; reply_packets = 1 });
  let rpc = Rpc.create_client tb.Testbed.sim client in
  let calls = Array.make 12 [] in
  Array.iteri
    (fun i _ ->
      Sim.spawn tb.Testbed.sim (fun () ->
          Sim.delay (float_of_int i *. 1_000.0);
          for _ = 1 to 2 do
            let r =
              match Rpc.call rpc ~dst:server.Instance.endpoint ~handshake:true () with
              | `Reply l -> Printf.sprintf "%h" l
              | `Timeout -> "timeout"
            in
            calls.(i) <- r :: calls.(i)
          done))
    calls;
  Testbed.run tb;
  Printf.sprintf "retransmits %d completed %d shed %d\n" (Rpc.retransmits rpc)
    (Rpc.calls_completed rpc) (Bm_cloud.Limits.net_shed net_limits)
  ^ String.concat ""
      (List.mapi
         (fun i l -> Printf.sprintf "c%d %s\n" i (String.concat " " (List.rev l)))
         (Array.to_list calls))

let rto_trace_seed2020 =
  "retransmits 23 completed 24 shed 34\n"
  ^ "c0 0x1.616cc7ae147aep+16 0x1.7da57868f5c28p+27\n"
  ^ "c1 0x1.6c8247ae147aep+16 0x1.7da57868f5c28p+27\n"
  ^ "c2 0x1.616cc7ae147aep+16 0x1.7da57868f5c28p+27\n"
  ^ "c3 0x1.6bbbc7ae147aep+16 0x1.7da550b8f5c28p+27\n"
  ^ "c4 0x1.6b89c7ae147aep+16 0x1.7da7e6c8f5c28p+27\n"
  ^ "c5 0x1.6bbbc7ae147aep+16 0x1.7da61fb8f5c28p+27\n"
  ^ "c6 0x1.6b89c7ae147aep+16 0x1.7da7c278f5c28p+27\n"
  ^ "c7 0x1.7dd42831eb851p+26 0x1.7dda2851eb851p+26\n"
  ^ "c8 0x1.674747ae147aep+16 0x1.7ddc03d1eb85p+26\n"
  ^ "c9 0x1.7dd314b1eb852p+26 0x1.7dd1cbd1eb85p+26\n"
  ^ "c10 0x1.7dd2fc11eb851p+26 0x1.7dd5e571eb851p+26\n"
  ^ "c11 0x1.7dd32211eb852p+26 0x1.7dd5b2f1eb85p+26\n"

let test_rpc_rto_golden () =
  Alcotest.(check string) "retransmits and latencies" rto_trace_seed2020 (rto_trace ())

(* ------------------------------------------------------------------ *)
(* Netperf *)

let test_udp_pps_limited () =
  let tb = Testbed.make ~seed:3 () in
  let _, a, b = Testbed.bm_pair tb in
  let r = Netperf.udp_pps tb.Testbed.sim ~src:a ~dst:b ~senders:4 ~batch:32 ~duration:(Simtime.ms 60.0) () in
  (* 4 senders offer ~6M; the 4M PPS bucket must bind (a little burst
     credit leaks in at the start of the window). *)
  check_bool "limited to ~4M" true (r.Netperf.received_pps < 4.5e6 && r.Netperf.received_pps > 3.2e6)

let test_udp_pps_unrestricted_exceeds_limit () =
  let tb = Testbed.make ~seed:3 () in
  let _, a, b = Testbed.bm_pair ~net_limits:(Bm_cloud.Limits.unlimited_net ()) tb in
  let r = Netperf.udp_pps tb.Testbed.sim ~src:a ~dst:b ~senders:12 ~batch:64 ~duration:(Simtime.ms 10.0) () in
  (* §4.3: 16M PPS once the limit is lifted. *)
  check_bool "far above 4M" true (r.Netperf.received_pps > 10e6)

let test_tcp_stream_hits_bandwidth_cap () =
  let tb = Testbed.make ~seed:4 () in
  let _, a, b = Testbed.bm_pair tb in
  let r = Netperf.tcp_stream tb.Testbed.sim ~src:a ~dst:b ~duration:(Simtime.ms 40.0) () in
  check_bool "~10Gbit wire" true (Float.abs (r.Netperf.gbit_s -. 10.0) < 1.2);
  check_bool "payload < wire" true (r.Netperf.payload_gbit_s < r.Netperf.gbit_s)

(* ------------------------------------------------------------------ *)
(* Sockperf *)

let test_sockperf_paths () =
  let lat path =
    let tb = Testbed.make ~seed:5 () in
    let _, a, b = Testbed.bm_pair tb in
    Sockperf.ping_pong tb.Testbed.sim ~a ~b ~path ~count:200 ()
  in
  let kernel = lat Sockperf.Kernel in
  let dpdk = lat Sockperf.Dpdk in
  check_int "all pings answered" 200 kernel.Sockperf.samples;
  check_bool "microsecond scale" true (kernel.Sockperf.avg_us > 3.0 && kernel.Sockperf.avg_us < 50.0);
  check_bool "dpdk cheaper than kernel" true (dpdk.Sockperf.avg_us < kernel.Sockperf.avg_us)

let test_sockperf_dpdk_vm_beats_bm () =
  (* Fig. 10: with the kernel bypassed, the vm's shorter path wins. *)
  let bm =
    let tb = Testbed.make ~seed:5 () in
    let _, a, b = Testbed.bm_pair tb in
    Sockperf.ping_pong tb.Testbed.sim ~a ~b ~path:Sockperf.Dpdk ~count:200 ()
  in
  let vm =
    let tb = Testbed.make ~seed:5 () in
    let _, a, b = Testbed.vm_pair tb in
    Sockperf.ping_pong tb.Testbed.sim ~a ~b ~path:Sockperf.Dpdk ~count:200 ()
  in
  check_bool "vm dpdk faster" true (vm.Sockperf.avg_us < bm.Sockperf.avg_us)

(* ------------------------------------------------------------------ *)
(* Fio *)

let test_fio_saturates_iops_limit () =
  let tb = Testbed.make ~seed:6 () in
  let _, g = Testbed.bm_guest tb in
  let r = Fio.run tb.Testbed.sim (Rng.create ~seed:6) g ~duration:(Simtime.ms 200.0) () in
  check_bool "~25K IOPS" true (Float.abs (r.Fio.iops -. 25e3) /. 25e3 < 0.1);
  check_bool "latency ordering" true (r.Fio.avg_us <= r.Fio.p99_us && r.Fio.p99_us <= r.Fio.p999_us)

let test_fio_bm_tail_beats_vm () =
  let run make =
    let tb = Testbed.make ~seed:6 () in
    let g = make tb in
    Fio.run tb.Testbed.sim (Rng.create ~seed:6) g ~duration:(Simtime.ms 400.0) ()
  in
  let bm = run (fun tb -> snd (Testbed.bm_guest tb)) in
  let vm = run (fun tb -> snd (Testbed.vm_guest tb)) in
  check_bool "bm avg better" true (bm.Fio.avg_us < vm.Fio.avg_us);
  check_bool "bm p99.9 much better" true (vm.Fio.p999_us > 1.5 *. bm.Fio.p999_us)

(* ------------------------------------------------------------------ *)
(* Stream / Spec *)

let test_stream_kernels () =
  let tb = Testbed.make ~seed:7 () in
  let _, g = Testbed.bm_guest tb in
  let results = Stream.run tb.Testbed.sim g ~elements:10_000_000 ~runs:2 () in
  check_int "four kernels" 4 (List.length results);
  List.iter
    (fun r ->
      (* E5-2682 v4: 4ch DDR4-2400 = 76.8 GB/s peak, ~65 effective. *)
      check_bool (Stream.kernel_name r.Stream.kernel) true
        (r.Stream.best_gb_s > 55.0 && r.Stream.best_gb_s < 77.0);
      check_bool "best >= avg" true (r.Stream.best_gb_s >= r.Stream.avg_gb_s -. 1e-6))
    results

let test_spec_ordering () =
  let run make =
    let tb = Testbed.make ~seed:8 () in
    Spec_cint.run tb.Testbed.sim (make tb)
  in
  let phys = run (fun tb -> Testbed.physical tb) in
  let bm = run (fun tb -> snd (Testbed.bm_guest tb)) in
  let vm = run (fun tb -> snd (Testbed.vm_guest tb)) in
  let bm_rel = Spec_cint.relative ~baseline:phys bm in
  let vm_rel = Spec_cint.relative ~baseline:phys vm in
  let geo l = List.assoc "geomean" l in
  check_bool "bm ~4% above physical" true (Float.abs (geo bm_rel -. 1.04) < 0.01);
  check_bool "vm below physical" true (geo vm_rel < 1.0);
  check_bool "vm above 0.90" true (geo vm_rel > 0.90);
  (* mcf (TLB-hostile) must lose more than hmmer (cache-resident). *)
  let vm_of b = List.assoc b vm_rel in
  check_bool "mcf worst-case" true (vm_of "mcf" < vm_of "hmmer")

(* ------------------------------------------------------------------ *)
(* Applications *)

let test_nginx_bm_beats_vm () =
  let run make =
    let tb = Testbed.make ~seed:9 () in
    let server = make tb in
    let client = Testbed.client_box tb in
    Nginx.serve server ();
    Nginx.ab tb.Testbed.sim ~client ~server ~concurrency:200 ~requests:4_000
  in
  let bm = run (fun tb -> snd (Testbed.bm_guest tb)) in
  let vm = run (fun tb -> snd (Testbed.vm_guest tb)) in
  check_int "bm completed all" 4_000 bm.Nginx.requests;
  check_int "vm completed all" 4_000 vm.Nginx.requests;
  let adv = (bm.Nginx.rps /. vm.Nginx.rps) -. 1.0 in
  check_bool "bm 30-90% ahead" true (adv > 0.30 && adv < 0.90);
  check_bool "bm responds faster" true (bm.Nginx.avg_ms < vm.Nginx.avg_ms)

let test_mariadb_patterns () =
  let run make pattern =
    let tb = Testbed.make ~seed:10 () in
    let server = make tb in
    let client = Testbed.client_box tb in
    Mariadb.serve server;
    Mariadb.sysbench tb.Testbed.sim ~client ~server ~pattern ~duration:(Simtime.ms 150.0) ()
  in
  let bm_ro = run (fun tb -> snd (Testbed.bm_guest tb)) Mariadb.Read_only in
  let vm_ro = run (fun tb -> snd (Testbed.vm_guest tb)) Mariadb.Read_only in
  let bm_wo = run (fun tb -> snd (Testbed.bm_guest tb)) Mariadb.Write_only in
  let vm_wo = run (fun tb -> snd (Testbed.vm_guest tb)) Mariadb.Write_only in
  let ro_adv = (bm_ro.Mariadb.qps /. vm_ro.Mariadb.qps) -. 1.0 in
  let wo_adv = (bm_wo.Mariadb.qps /. vm_wo.Mariadb.qps) -. 1.0 in
  check_bool "read-only ~15%" true (ro_adv > 0.08 && ro_adv < 0.35);
  check_bool "write-only larger gap" true (wo_adv > ro_adv);
  check_bool "bm read QPS ~200K band" true
    (bm_ro.Mariadb.qps > 140e3 && bm_ro.Mariadb.qps < 280e3);
  check_bool "writes slower than reads" true (bm_wo.Mariadb.qps < bm_ro.Mariadb.qps)

let test_redis_single_threaded_and_gap () =
  let run make =
    let tb = Testbed.make ~seed:11 () in
    let server = make tb in
    let client = Testbed.client_box tb in
    Redis_bench.serve server;
    Redis_bench.benchmark tb.Testbed.sim ~client ~server ~clients:500 ~requests:5_000 ()
  in
  let bm = run (fun tb -> snd (Testbed.bm_guest tb)) in
  let vm = run (fun tb -> snd (Testbed.vm_guest tb)) in
  (* Single-threaded server: ~100-200K RPS, not millions. *)
  check_bool "single-thread scale" true (bm.Redis_bench.rps > 80e3 && bm.Redis_bench.rps < 250e3);
  let adv = (bm.Redis_bench.rps /. vm.Redis_bench.rps) -. 1.0 in
  check_bool "bm 15-50% ahead" true (adv > 0.15 && adv < 0.50)

let test_boot_workload_integration () =
  (* End-to-end: provision, boot, then serve traffic — the §3.2 scenario. *)
  let tb = Testbed.make ~seed:12 () in
  let _, g = Testbed.bm_guest tb in
  let booted = ref None in
  Sim.spawn tb.Testbed.sim (fun () ->
      booted := Some (Boot.run g ~image:Bm_cloud.Image.centos7 ()));
  Testbed.run tb;
  (match !booted with
  | Some (Ok t) ->
    check_bool "boot in seconds" true (t.Boot.total_ns > Simtime.ms 400.0 && t.Boot.total_ns < Simtime.sec 10.0);
    check_bool "image fully read" true (t.Boot.bytes_loaded = Bm_cloud.Image.total_boot_bytes Bm_cloud.Image.centos7)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "boot never finished")

let suites =
  [
    ( "workloads.testbed",
      [ Alcotest.test_case "topologies" `Quick test_testbed_topologies ] );
    ( "workloads.rpc",
      [
        Alcotest.test_case "roundtrip + handshake" `Quick test_rpc_roundtrip_and_handshake;
        Alcotest.test_case "tag visible" `Quick test_rpc_tag_visible_to_service;
        Alcotest.test_case "RTO retransmits (golden)" `Quick test_rpc_rto_golden;
      ] );
    ( "workloads.netperf",
      [
        Alcotest.test_case "PPS limited" `Quick test_udp_pps_limited;
        Alcotest.test_case "unrestricted PPS" `Quick test_udp_pps_unrestricted_exceeds_limit;
        Alcotest.test_case "TCP bandwidth cap" `Quick test_tcp_stream_hits_bandwidth_cap;
      ] );
    ( "workloads.sockperf",
      [
        Alcotest.test_case "paths ordering" `Quick test_sockperf_paths;
        Alcotest.test_case "dpdk: vm beats bm" `Quick test_sockperf_dpdk_vm_beats_bm;
      ] );
    ( "workloads.fio",
      [
        Alcotest.test_case "saturates IOPS limit" `Quick test_fio_saturates_iops_limit;
        Alcotest.test_case "bm tail beats vm" `Quick test_fio_bm_tail_beats_vm;
      ] );
    ( "workloads.stream",
      [ Alcotest.test_case "kernel bandwidths" `Quick test_stream_kernels ] );
    ( "workloads.spec", [ Alcotest.test_case "relative ordering" `Quick test_spec_ordering ] );
    ( "workloads.apps",
      [
        Alcotest.test_case "nginx gap" `Quick test_nginx_bm_beats_vm;
        Alcotest.test_case "mariadb patterns" `Quick test_mariadb_patterns;
        Alcotest.test_case "redis single-threaded" `Quick test_redis_single_threaded_and_gap;
        Alcotest.test_case "boot then serve" `Quick test_boot_workload_integration;
      ] );
  ]
