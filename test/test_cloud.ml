(* Tests for the cloud substrate: limits, vswitch, storage, images,
   control plane. *)

open Bm_engine
open Bm_virtio
open Bm_cloud

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let mk_pkt ?(count = 1) ?(size = 64) ~src ~dst id =
  Packet.make ~id ~src ~dst ~size ~count ~protocol:Packet.Udp ~sent_at:0.0 ()

let cores_of sim = Bm_hw.Cores.create sim ~spec:Bm_hw.Cpu_spec.base_server_e5 ()

(* ------------------------------------------------------------------ *)
(* Limits *)

let test_limits_pps_cap () =
  let sim = Sim.create () in
  let limits = Limits.cloud_net () in
  let meter = Stats.Meter.create () in
  Sim.spawn sim (fun () ->
      (* Offer 8M pps in bursts of 32: should pass at 4M. *)
      for _ = 1 to 50_000 do
        ignore (Limits.net_admit limits ~packets:32 ~bytes_:(32 * 64));
        Stats.Meter.mark_n meter ~now:(Sim.clock ()) 32
      done);
  Sim.run sim;
  let rate = Stats.Meter.rate meter in
  check_bool "~4M pps" true (Float.abs (rate -. 4e6) /. 4e6 < 0.02)

let test_limits_bandwidth_cap () =
  let sim = Sim.create () in
  let limits = Limits.cloud_net () in
  let meter = Stats.Meter.create () in
  Sim.spawn sim (fun () ->
      (* 1500B packets: the 10 Gbit/s bucket binds before the PPS one. *)
      for _ = 1 to 30_000 do
        ignore (Limits.net_admit limits ~packets:8 ~bytes_:(8 * 1500));
        Stats.Meter.mark_n meter ~now:(Sim.clock ()) (8 * 1500)
      done);
  Sim.run sim;
  let byte_rate = Stats.Meter.rate meter in
  check_bool "~10Gbit/s" true (Float.abs ((byte_rate *. 8.0) -. 10e9) /. 10e9 < 0.02)

let test_limits_iops_cap () =
  let sim = Sim.create () in
  let limits = Limits.cloud_blk () in
  let meter = Stats.Meter.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 50_000 do
        ignore (Limits.blk_admit limits ~bytes_:4096);
        Stats.Meter.mark_n meter ~now:(Sim.clock ()) 1
      done);
  Sim.run sim;
  let rate = Stats.Meter.rate meter in
  check_bool "~25K IOPS" true (Float.abs (rate -. 25e3) /. 25e3 < 0.02)

let test_limits_unlimited () =
  let sim = Sim.create () in
  let limits = Limits.unlimited_net () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 1000 do
        ignore (Limits.net_admit limits ~packets:1000 ~bytes_:1_000_000)
      done;
      check_float "no time passed" 0.0 (Sim.clock ()));
  Sim.run sim

(* ------------------------------------------------------------------ *)
(* Vswitch *)

let test_vswitch_local_delivery () =
  let sim = Sim.create () in
  let fabric = Vswitch.create_fabric () in
  let vs = Vswitch.create sim ~fabric ~cores:(cores_of sim) () in
  let got = ref [] in
  let a = Vswitch.register vs ~deliver:(fun pkt -> got := pkt :: !got) in
  let b = Vswitch.register vs ~deliver:(fun _ -> ()) in
  Sim.spawn sim (fun () -> Vswitch.send vs (mk_pkt ~src:b ~dst:a 1));
  Sim.run sim;
  check_int "delivered" 1 (List.length !got);
  check_int "forwarded counter" 1 (Vswitch.forwarded vs)

let test_vswitch_hop_latency () =
  let sim = Sim.create () in
  let fabric = Vswitch.create_fabric () in
  let vs = Vswitch.create sim ~fabric ~cores:(cores_of sim) () in
  let arrival = ref nan in
  let a = Vswitch.register vs ~deliver:(fun _ -> arrival := Sim.now sim) in
  let b = Vswitch.register vs ~deliver:(fun _ -> ()) in
  Sim.spawn sim (fun () -> Vswitch.send vs (mk_pkt ~src:b ~dst:a 1));
  Sim.run sim;
  check_bool "hop adds >= 5us" true (!arrival >= 5_000.0)

let test_vswitch_cross_server () =
  let sim = Sim.create () in
  let fabric = Vswitch.create_fabric () in
  let vs1 = Vswitch.create sim ~fabric ~cores:(cores_of sim) () in
  let vs2 = Vswitch.create sim ~fabric ~cores:(cores_of sim) () in
  let arrival = ref nan in
  let a = Vswitch.register vs1 ~deliver:(fun _ -> ()) in
  let b = Vswitch.register vs2 ~deliver:(fun _ -> arrival := Sim.now sim) in
  Sim.spawn sim (fun () -> Vswitch.send vs1 (mk_pkt ~src:a ~dst:b 1));
  Sim.run sim;
  check_bool "crossed fabric with rtt" true (!arrival >= 10_000.0);
  check_int "peer forwarded" 1 (Vswitch.forwarded vs2)

let test_vswitch_unknown_drops () =
  let sim = Sim.create () in
  let fabric = Vswitch.create_fabric () in
  let vs = Vswitch.create sim ~fabric ~cores:(cores_of sim) () in
  let a = Vswitch.register vs ~deliver:(fun _ -> ()) in
  Sim.spawn sim (fun () -> Vswitch.send vs (mk_pkt ~src:a ~dst:9999 1));
  Sim.run sim;
  check_int "dropped" 1 (Vswitch.dropped vs)

(* Unknown destinations are not silent: they land in a dedicated
   counter, a named metric, and a trace instant, on top of the total. *)
let test_vswitch_unknown_drop_observability () =
  let sim = Sim.create () in
  let metrics = Metrics.create () in
  let trace = Trace.create () in
  let fabric = Vswitch.create_fabric () in
  let vs =
    Vswitch.create sim ~obs:(Obs.of_sim ~trace ~metrics sim) ~fabric ~cores:(cores_of sim) ()
  in
  let a = Vswitch.register vs ~deliver:(fun _ -> ()) in
  Sim.spawn sim (fun () ->
      Vswitch.send vs (mk_pkt ~count:3 ~src:a ~dst:9999 1);
      Vswitch.send vs (mk_pkt ~src:a ~dst:8888 2));
  Sim.run sim;
  check_int "unknown_dropped counter" 4 (Vswitch.unknown_dropped vs);
  check_int "total dropped includes unknown" 4 (Vswitch.dropped vs);
  check_int "named metric" 4
    (int_of_float (Metrics.counter_value metrics "cloud.vswitch.unknown_dst_dropped"));
  check_int "trace instants" 2 (Trace.count trace ~track:"cloud.vswitch" ~name:"unknown_dst" ())

(* ------------------------------------------------------------------ *)
(* Blockstore *)

let run_store_latencies ~kind ~op ~n =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let store = Blockstore.create sim rng ~kind () in
  let hist = Stats.Histogram.create ~lo:1_000.0 ~hi:1e10 () in
  Sim.spawn sim (fun () ->
      for _ = 1 to n do
        let t0 = Sim.clock () in
        ignore (Blockstore.serve store ~op ~bytes_:4096);
        Stats.Histogram.add hist (Sim.clock () -. t0)
      done);
  Sim.run sim;
  hist

let test_store_cloud_latency_scale () =
  let hist = run_store_latencies ~kind:Blockstore.Cloud_ssd ~op:`Read ~n:2000 in
  let avg = Stats.Histogram.mean hist in
  (* ~40us rtt + ~60us media + transfer: around 100-130us. *)
  check_bool "avg in cloud band" true (avg > 80_000.0 && avg < 180_000.0);
  let p999 = Stats.Histogram.percentile hist 99.9 in
  check_bool "tail exists" true (p999 > 1.5 *. avg)

let test_store_local_faster () =
  let cloud = run_store_latencies ~kind:Blockstore.Cloud_ssd ~op:`Read ~n:1000 in
  let local = run_store_latencies ~kind:Blockstore.Local_ssd ~op:`Read ~n:1000 in
  check_bool "local beats cloud" true
    (Stats.Histogram.mean local < Stats.Histogram.mean cloud);
  check_bool "local ~50us" true (Stats.Histogram.mean local < 80_000.0)

(* A local SSD serves 16 requests at once: of 17 simultaneous ones, the
   last waits for the first server to free up. *)
let test_store_parallelism_queues () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:6 in
  let store = Blockstore.create sim rng ~kind:Blockstore.Local_ssd () in
  let done_at = Array.make 17 nan in
  Array.iteri
    (fun i _ ->
      Sim.spawn sim (fun () ->
          ignore (Blockstore.serve store ~op:`Read ~bytes_:4096);
          done_at.(i) <- Sim.now sim))
    done_at;
  Sim.run sim;
  let first = Array.fold_left Float.min infinity (Array.sub done_at 0 16) in
  check_bool "the 17th queues behind the first 16" true (done_at.(16) > first +. 10_000.0)

(* ------------------------------------------------------------------ *)
(* Image *)

let test_image_boot_bytes () =
  let img = Image.centos7 in
  check_int "total = parts" (img.Image.bootloader_bytes + img.Image.kernel_bytes + img.Image.initrd_bytes)
    (Image.total_boot_bytes img);
  check_bool "kernel version recorded" true (img.Image.kernel_version = "3.10.0-514.26.2.el7")

(* ------------------------------------------------------------------ *)
(* Control plane *)

let test_place_bm_takes_whole_board () =
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Bm_server { boards = 2; board_threads = 32 }) in
  (match Control_plane.place cp ~name:"g1" ~vcpus:8 ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
  | Ok p ->
    check_bool "bare metal" true (p.Control_plane.substrate = Control_plane.Bare_metal);
    check_int "whole board threads" 32 p.Control_plane.threads
  | Error e -> Alcotest.fail e);
  check_int "used = board" 32 (Control_plane.used_threads cp)

let test_place_vm_exact_threads () =
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
  (match Control_plane.place cp ~name:"v1" ~vcpus:8 ~prefer:Control_plane.Virtual ~image:Image.centos7 () with
  | Ok p -> check_int "exact" 8 p.Control_plane.threads
  | Error e -> Alcotest.fail e);
  check_int "used" 8 (Control_plane.used_threads cp)

let test_place_capacity_exhaustion () =
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Bm_server { boards = 2; board_threads = 32 }) in
  let ok name =
    match Control_plane.place cp ~name ~vcpus:32 ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
    | Ok _ -> true
    | Error _ -> false
  in
  check_bool "1st board" true (ok "a");
  check_bool "2nd board" true (ok "b");
  check_bool "3rd rejected" false (ok "c");
  Control_plane.release cp "a";
  check_bool "after release" true (ok "d")

let test_place_board_too_small () =
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Bm_server { boards = 16; board_threads = 8 }) in
  match Control_plane.place cp ~name:"big" ~vcpus:32 ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
  | Ok _ -> Alcotest.fail "8HT board accepted a 32 vCPU guest"
  | Error _ -> ()

let test_cold_migration_roundtrip () =
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Bm_server { boards = 1; board_threads = 32 }) in
  let _ = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
  (match Control_plane.place cp ~name:"g" ~vcpus:16 ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* bm -> vm *)
  (match Control_plane.cold_migrate cp ~name:"g" ~to_:Control_plane.Virtual with
  | Ok p ->
    check_bool "now virtual" true (p.Control_plane.substrate = Control_plane.Virtual);
    check_int "vm threads" 16 p.Control_plane.threads
  | Error e -> Alcotest.fail e);
  (* board freed: a second bm guest fits *)
  (match Control_plane.place cp ~name:"g2" ~vcpus:32 ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("board not freed: " ^ e));
  (* vm -> bm now fails (board taken) and rolls back *)
  (match Control_plane.cold_migrate cp ~name:"g" ~to_:Control_plane.Bare_metal with
  | Ok _ -> Alcotest.fail "migration should fail, no free board"
  | Error _ -> ());
  match Control_plane.lookup cp "g" with
  | Some p -> check_bool "rollback kept vm placement" true (p.Control_plane.substrate = Control_plane.Virtual)
  | None -> Alcotest.fail "instance lost by failed migration"

let test_density_table1 () =
  (* One rack slot of each: a BM-Hive server sells 16x32 HT, a vm server
     88 HT — the density column of Table 1. *)
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Bm_server { boards = 16; board_threads = 32 }) in
  let _ = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
  check_int "sellable" (16 * 32 + 88) (Control_plane.sellable_threads cp)

let prop_place_release_conserves =
  QCheck.Test.make ~name:"place/release conserves used_threads" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 32))
    (fun sizes ->
      let cp = Control_plane.create () in
      let _ = Control_plane.add_server cp (Control_plane.Bm_server { boards = 8; board_threads = 32 }) in
      let _ = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
      let placed =
        List.filteri
          (fun i vcpus ->
            match Control_plane.place cp ~name:(string_of_int i) ~vcpus ~image:Bm_cloud.Image.centos7 () with
            | Ok _ -> true
            | Error _ -> false)
          sizes
      in
      ignore placed;
      List.iteri (fun i _ -> Control_plane.release cp (string_of_int i)) sizes;
      Control_plane.used_threads cp = 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "cloud.limits",
      [
        Alcotest.test_case "4M PPS cap" `Quick test_limits_pps_cap;
        Alcotest.test_case "10Gbit cap" `Quick test_limits_bandwidth_cap;
        Alcotest.test_case "25K IOPS cap" `Quick test_limits_iops_cap;
        Alcotest.test_case "unlimited" `Quick test_limits_unlimited;
      ] );
    ( "cloud.vswitch",
      [
        Alcotest.test_case "local delivery" `Quick test_vswitch_local_delivery;
        Alcotest.test_case "hop latency" `Quick test_vswitch_hop_latency;
        Alcotest.test_case "cross-server" `Quick test_vswitch_cross_server;
        Alcotest.test_case "unknown dst drops" `Quick test_vswitch_unknown_drops;
        Alcotest.test_case "unknown dst observability" `Quick
          test_vswitch_unknown_drop_observability;
      ] );
    ( "cloud.blockstore",
      [
        Alcotest.test_case "cloud latency scale" `Quick test_store_cloud_latency_scale;
        Alcotest.test_case "local faster" `Quick test_store_local_faster;
        Alcotest.test_case "parallelism queues" `Quick test_store_parallelism_queues;
      ] );
    ( "cloud.image",
      [
        Alcotest.test_case "boot bytes" `Quick test_image_boot_bytes;
      ] );
    ( "cloud.control_plane",
      [
        Alcotest.test_case "bm takes whole board" `Quick test_place_bm_takes_whole_board;
        Alcotest.test_case "vm exact threads" `Quick test_place_vm_exact_threads;
        Alcotest.test_case "capacity exhaustion" `Quick test_place_capacity_exhaustion;
        Alcotest.test_case "board too small" `Quick test_place_board_too_small;
        Alcotest.test_case "cold migration" `Quick test_cold_migration_roundtrip;
        Alcotest.test_case "Table 1 density" `Quick test_density_table1;
      ] );
    qsuite "cloud.control_plane.prop" [ prop_place_release_conserves ];
  ]

(* Placement strategies. *)
let test_strategies_differ () =
  let setup () =
    let cp = Control_plane.create () in
    let s1 = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
    let s2 = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
    (* Pre-load server 1 so headrooms differ. *)
    (match Control_plane.place cp ~name:"preload" ~vcpus:60 ~prefer:Control_plane.Virtual ~image:Image.centos7 () with
    | Ok p -> check_int "preload on s1" s1 p.Control_plane.server
    | Error e -> Alcotest.fail e);
    (cp, s1, s2)
  in
  let place_with strategy =
    let cp, s1, s2 = setup () in
    match
      Control_plane.place cp ~name:"x" ~vcpus:8 ~prefer:Control_plane.Virtual ~strategy
        ~image:Image.centos7 ()
    with
    | Ok p -> (p.Control_plane.server, s1, s2)
    | Error e -> Alcotest.fail e
  in
  let first, s1, _ = place_with Control_plane.First_fit in
  check_int "first-fit takes s1" s1 first;
  let best, s1', _ = place_with Control_plane.Best_fit in
  check_int "best-fit packs the fuller s1" s1' best;
  let spread, _, s2'' = place_with Control_plane.Spread in
  check_int "spread balances onto s2" s2'' spread

let test_best_fit_avoids_stranding () =
  (* Two bm servers with differently sized boards: best-fit should put a
     small guest on the small-board server, keeping big boards free. *)
  let cp = Control_plane.create () in
  let small = Control_plane.add_server cp (Control_plane.Bm_server { boards = 1; board_threads = 8 }) in
  let big = Control_plane.add_server cp (Control_plane.Bm_server { boards = 1; board_threads = 32 }) in
  ignore big;
  (* Both feasible for 8 vCPUs; first-fit would also pick [small] here,
     so force the interesting case: declaration order big-first. *)
  let cp2 = Control_plane.create () in
  let big2 = Control_plane.add_server cp2 (Control_plane.Bm_server { boards = 1; board_threads = 32 }) in
  let small2 = Control_plane.add_server cp2 (Control_plane.Bm_server { boards = 1; board_threads = 8 }) in
  ignore big2;
  (match Control_plane.place cp2 ~name:"tiny" ~vcpus:4 ~prefer:Control_plane.Bare_metal
           ~strategy:Control_plane.First_fit ~image:Image.centos7 () with
  | Ok p -> check_int "first-fit burns the 32HT board" 32 p.Control_plane.threads
  | Error e -> Alcotest.fail e);
  ignore small2;
  (match Control_plane.place cp ~name:"tiny" ~vcpus:4 ~prefer:Control_plane.Bare_metal
           ~strategy:Control_plane.Best_fit ~image:Image.centos7 () with
  | Ok p ->
    check_int "best-fit uses the 8HT board" 8 p.Control_plane.threads;
    check_int "on the small server" small p.Control_plane.server
  | Error e -> Alcotest.fail e)

let strategy_suites =
  [
    ( "cloud.control_plane.strategies",
      [
        Alcotest.test_case "strategies differ" `Quick test_strategies_differ;
        Alcotest.test_case "best-fit avoids stranding" `Quick test_best_fit_avoids_stranding;
      ] );
  ]

let suites = suites @ strategy_suites

(* vhost-user protocol state machine (§3.4.2). *)
let test_vhost_standard_handshake () =
  let b = Vhost_user.create () in
  (match Vhost_user.standard_handshake b ~driver_features:Bm_virtio.Feature.default_net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "ring 0 enabled" true (Vhost_user.ring_enabled b 0);
  check_bool "ring 1 enabled" true (Vhost_user.ring_enabled b 1);
  check_bool "features recorded" true (Vhost_user.negotiated_features b <> None);
  check_bool "many messages" true (Vhost_user.messages_handled b > 10)

let test_vhost_ordering_enforced () =
  let b = Vhost_user.create () in
  (* Features before owner: rejected. *)
  (match Vhost_user.handle b (Vhost_user.Set_features 0) with
  | Ok _ -> Alcotest.fail "accepted SET_FEATURES before SET_OWNER"
  | Error _ -> ());
  (match Vhost_user.handle b Vhost_user.Set_owner with
  | Ok Vhost_user.Ack -> ()
  | _ -> Alcotest.fail "SET_OWNER failed");
  (* Vring setup before the memory table: rejected. *)
  (match Vhost_user.handle b (Vhost_user.Set_vring_num { index = 0; size = 256 }) with
  | Ok _ -> Alcotest.fail "accepted VRING_NUM before MEM_TABLE"
  | Error _ -> ());
  (* Enabling an unconfigured ring: rejected. *)
  ignore (Vhost_user.handle b (Vhost_user.Set_features 0));
  ignore (Vhost_user.handle b (Vhost_user.Set_mem_table { regions = 1 }));
  match Vhost_user.handle b (Vhost_user.Set_vring_enable { index = 0; enabled = true }) with
  | Ok _ -> Alcotest.fail "enabled an unconfigured ring"
  | Error _ -> ()

let test_vhost_feature_subset () =
  let b = Vhost_user.create ~backend_features:0xF0 () in
  ignore (Vhost_user.handle b Vhost_user.Set_owner);
  match Vhost_user.handle b (Vhost_user.Set_features 0x10F) with
  | Ok _ -> Alcotest.fail "accepted features outside the offer"
  | Error _ -> (
    match Vhost_user.handle b (Vhost_user.Set_features 0xF0) with
    | Ok Vhost_user.Ack -> ()
    | _ -> Alcotest.fail "rejected a legal subset")

let test_vhost_mem_table_invalidates_rings () =
  let b = Vhost_user.create () in
  (match Vhost_user.standard_handshake b ~driver_features:Bm_virtio.Feature.default_net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Re-mapping guest memory (ballooning, migration-in) kills ring state. *)
  ignore (Vhost_user.handle b (Vhost_user.Set_mem_table { regions = 3 }));
  check_bool "rings disabled after remap" false (Vhost_user.ring_enabled b 0);
  match Vhost_user.handle b (Vhost_user.Set_vring_enable { index = 0; enabled = true }) with
  | Ok _ -> Alcotest.fail "stale ring re-enabled without reconfiguration"
  | Error _ -> ()

let test_vhost_get_vring_base_stops () =
  let b = Vhost_user.create () in
  (match Vhost_user.standard_handshake b ~driver_features:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Vhost_user.handle b (Vhost_user.Get_vring_base { index = 1 }) with
  | Ok (Vhost_user.Vring_base 0) -> ()
  | _ -> Alcotest.fail "expected base 0");
  check_bool "ring stopped" false (Vhost_user.ring_enabled b 1);
  check_bool "other ring untouched" true (Vhost_user.ring_enabled b 0)

let vhost_suites =
  [
    ( "cloud.vhost_user",
      [
        Alcotest.test_case "standard handshake" `Quick test_vhost_standard_handshake;
        Alcotest.test_case "ordering enforced" `Quick test_vhost_ordering_enforced;
        Alcotest.test_case "feature subset" `Quick test_vhost_feature_subset;
        Alcotest.test_case "mem table invalidates rings" `Quick test_vhost_mem_table_invalidates_rings;
        Alcotest.test_case "GET_VRING_BASE stops ring" `Quick test_vhost_get_vring_base_stops;
      ] );
  ]

let suites = suites @ vhost_suites

(* ------------------------------------------------------------------ *)
(* Control-plane error paths and server-failure evacuation *)

let mixed_fleet () =
  let cp = Control_plane.create () in
  let bm0 = Control_plane.add_server cp (Control_plane.Bm_server { boards = 2; board_threads = 16 }) in
  let bm1 = Control_plane.add_server cp (Control_plane.Bm_server { boards = 2; board_threads = 16 }) in
  let vm = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 32 }) in
  (cp, bm0, bm1, vm)

let test_fleet_full_placement_fails () =
  let cp, _, _, _ = mixed_fleet () in
  for i = 0 to 3 do
    match Control_plane.place cp ~name:(Printf.sprintf "bm%d" i) ~vcpus:16
            ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  (match Control_plane.place cp ~name:"overflow" ~vcpus:16 ~prefer:Control_plane.Bare_metal
           ~image:Image.centos7 () with
  | Ok _ -> Alcotest.fail "placed on a full bm fleet"
  | Error _ -> ());
  (* The error left no partial state behind: freeing one board admits it. *)
  Control_plane.release cp "bm0";
  match Control_plane.place cp ~name:"overflow" ~vcpus:16 ~prefer:Control_plane.Bare_metal
          ~image:Image.centos7 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("fleet not recovered after release: " ^ e)

let test_cold_migrate_unknown_instance () =
  let cp, _, _, _ = mixed_fleet () in
  match Control_plane.cold_migrate cp ~name:"ghost" ~to_:Control_plane.Virtual with
  | Ok _ -> Alcotest.fail "migrated an instance that was never placed"
  | Error _ -> check_int "no capacity consumed" 0 (Control_plane.used_threads cp)

let test_release_idempotent () =
  let cp, _, _, _ = mixed_fleet () in
  (match Control_plane.place cp ~name:"g" ~vcpus:4 ~prefer:Control_plane.Virtual
           ~image:Image.centos7 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Control_plane.release cp "g";
  check_int "freed" 0 (Control_plane.used_threads cp);
  (* A second release of the same name, and of a never-placed name, must
     not drive the accounting negative. *)
  Control_plane.release cp "g";
  Control_plane.release cp "never-placed";
  check_int "still zero" 0 (Control_plane.used_threads cp)

let test_fail_server_unknown () =
  let cp, _, _, _ = mixed_fleet () in
  match Control_plane.fail_server cp 99 with
  | () -> Alcotest.fail "unknown server accepted"
  | exception Invalid_argument _ -> ()

let evacuate_with strategy =
  let cp, bm0, bm1, vm = mixed_fleet () in
  for i = 0 to 1 do
    match Control_plane.place cp ~name:(Printf.sprintf "bm%d" i) ~vcpus:16
            ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let outcomes = Control_plane.evacuate cp ~server:bm0 ~strategy () in
  check_int "both victims handled" 2 (List.length outcomes);
  check_bool "server marked failed" true (Control_plane.server_failed cp bm0);
  List.iter
    (fun (name, result) ->
      match result with
      | Error e -> Alcotest.fail (name ^ " stranded: " ^ e)
      | Ok p ->
        check_bool (name ^ " left the failed server") true (p.Control_plane.server <> bm0);
        check_bool (name ^ " stayed bare-metal") true
          (p.Control_plane.substrate = Control_plane.Bare_metal))
    outcomes;
  (* The failed server sells nothing; the survivors sell everything. *)
  check_int "capacity excludes the dead server" (2 * 16 + 32) (Control_plane.sellable_threads cp);
  ignore bm1;
  ignore vm

let test_evacuate_first_fit () = evacuate_with Control_plane.First_fit
let test_evacuate_best_fit () = evacuate_with Control_plane.Best_fit
let test_evacuate_spread () = evacuate_with Control_plane.Spread

let test_evacuate_overflow_cold_migrates () =
  (* Four victims, two spare boards: two survive bare-metal, two take
     the cold-migration path onto the vm substrate. *)
  let cp = Control_plane.create () in
  let victim = Control_plane.add_server cp (Control_plane.Bm_server { boards = 4; board_threads = 16 }) in
  let _spare = Control_plane.add_server cp (Control_plane.Bm_server { boards = 2; board_threads = 16 }) in
  let _vm = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
  for i = 0 to 3 do
    match Control_plane.place cp ~name:(Printf.sprintf "bm%d" i) ~vcpus:16
            ~prefer:Control_plane.Bare_metal ~image:Image.centos7 () with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let outcomes = Control_plane.evacuate cp ~server:victim () in
  let on sub =
    List.length
      (List.filter (function _, Ok p -> p.Control_plane.substrate = sub | _, Error _ -> false)
         outcomes)
  in
  check_int "two stay bare-metal" 2 (on Control_plane.Bare_metal);
  check_int "two cold-migrate" 2 (on Control_plane.Virtual)

let failure_suites =
  [
    ( "cloud.control_plane.failures",
      [
        Alcotest.test_case "fleet full" `Quick test_fleet_full_placement_fails;
        Alcotest.test_case "cold_migrate unknown" `Quick test_cold_migrate_unknown_instance;
        Alcotest.test_case "release idempotent" `Quick test_release_idempotent;
        Alcotest.test_case "fail_server unknown" `Quick test_fail_server_unknown;
        Alcotest.test_case "evacuate first-fit" `Quick test_evacuate_first_fit;
        Alcotest.test_case "evacuate best-fit" `Quick test_evacuate_best_fit;
        Alcotest.test_case "evacuate spread" `Quick test_evacuate_spread;
        Alcotest.test_case "evacuate overflow cold-migrates" `Quick
          test_evacuate_overflow_cold_migrates;
      ] );
  ]

let suites = suites @ failure_suites

(* ------------------------------------------------------------------ *)
(* Overload control: egress drops, storage admission,
   placement ceiling, shedding limiters *)

let test_vswitch_egress_overflow_drops () =
  let sim = Sim.create () in
  let fabric = Vswitch.create_fabric () in
  let vs = Vswitch.create sim ~fabric ~cores:(cores_of sim) () in
  let got = ref 0 in
  let a = Vswitch.register vs ~deliver:(fun _ -> incr got) in
  let b = Vswitch.register vs ~deliver:(fun _ -> ()) in
  (* 266 hardware-switched bursts at one instant: only 256 fit in
     flight. *)
  for i = 1 to 266 do
    Vswitch.forward_hw vs (mk_pkt ~src:b ~dst:a i)
  done;
  Sim.run sim;
  check_int "capacity delivered" 256 !got;
  check_int "overflow dropped" 10 (Vswitch.egress_dropped vs);
  check_int "total drops" 10 (Vswitch.dropped vs)

let test_blockstore_rejects_over_queue () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  (* 16 server slots, 512 queue slots: of 529 simultaneous local-SSD
     requests, 16 serve, 512 queue, one is refused at admission. *)
  let store = Blockstore.create sim rng ~kind:Blockstore.Local_ssd () in
  let served = ref 0 and rejected = ref 0 in
  for _ = 1 to 16 + 512 + 1 do
    Sim.spawn sim (fun () ->
        match Blockstore.serve store ~op:`Read ~bytes_:4096 with
        | `Served -> incr served
        | `Rejected -> incr rejected)
  done;
  Sim.run sim;
  check_int "528 eventually served" 528 !served;
  check_int "one refused" 1 !rejected;
  check_int "counter matches" 1 (Blockstore.rejected store)

(* A rejected request still pays the network round trip to the storage
   node — refusal is not free, but it is bounded (no service time). *)
let test_blockstore_rejection_costs_rtt_only () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let store = Blockstore.create sim rng ~kind:Blockstore.Cloud_ssd () in
  let reject_latency = ref nan and served_latency = ref infinity in
  for _ = 1 to 128 + 512 + 1 do
    Sim.spawn sim (fun () ->
        let t0 = Sim.clock () in
        match Blockstore.serve store ~op:`Read ~bytes_:4096 with
        | `Served -> served_latency := Float.min !served_latency (Sim.clock () -. t0)
        | `Rejected -> reject_latency := Sim.clock () -. t0)
  done;
  Sim.run sim;
  check_bool "refusal latency is bounded" true
    (Float.is_finite !reject_latency && !reject_latency < !served_latency)

let test_control_plane_admission_ceiling () =
  let cp = Control_plane.create () in
  Control_plane.set_admission_ceiling cp 0.5;
  let _ = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
  let place name vcpus =
    Control_plane.place cp ~name ~vcpus ~prefer:Control_plane.Virtual ~image:Image.centos7 ()
  in
  (* 44 of 88 threads is exactly the ceiling; the next request tips over. *)
  (match place "ok" 44 with Ok _ -> () | Error e -> Alcotest.fail e);
  (match place "over" 8 with
  | Ok _ -> Alcotest.fail "placed above the admission ceiling"
  | Error e -> check_bool "names the ceiling" true (Astring.String.is_infix ~affix:"ceiling" e));
  check_int "rejection counted" 1 (Control_plane.admission_rejections cp);
  (* Raising the ceiling re-admits the same request. *)
  Control_plane.set_admission_ceiling cp 1.0;
  (match place "over" 8 with Ok _ -> () | Error e -> Alcotest.fail e);
  check_int "no new rejection" 1 (Control_plane.admission_rejections cp)

(* A class ceiling refuses the placements that would push its class
   past the cap, counts each one, and leaves other classes alone. *)
let test_control_plane_class_ceiling () =
  let cp = Control_plane.create () in
  let _ = Control_plane.add_server cp (Control_plane.Vm_server { sellable_threads = 88 }) in
  let place name cls =
    Control_plane.place cp ~name ~vcpus:8 ~prefer:Control_plane.Virtual ~cls ~image:Image.centos7 ()
  in
  (* 22 of 88 threads: two 8-thread placements fit, the third and
     fourth would take the class to 24. *)
  Control_plane.set_class_ceiling cp ~cls:"bronze" 0.25;
  let refused =
    List.length
      (List.filter Result.is_error
         (List.map (fun name -> place name "bronze") [ "b1"; "b2"; "b3"; "b4" ]))
  in
  check_int "placements above the cap refused" 2 refused;
  check_int "each refusal counted" refused (Control_plane.class_rejections cp);
  (match place "g1" "gold" with Ok _ -> () | Error e -> Alcotest.fail e);
  check_int "global ceiling untouched" 0 (Control_plane.admission_rejections cp);
  Control_plane.clear_class_ceiling cp ~cls:"bronze";
  (match place "b5" "bronze" with Ok _ -> () | Error e -> Alcotest.fail e);
  check_int "no refusal once cleared" refused (Control_plane.class_rejections cp)

let test_limits_shed_never_blocks () =
  let sim = Sim.create () in
  let limits = Limits.cloud_net ~policy:Limits.Shed () in
  let admitted = ref 0 and refused = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 1000 do
        if Limits.net_admit limits ~packets:64 ~bytes_:(64 * 64) then incr admitted
        else incr refused
      done);
  Sim.run sim;
  (* Everything ran at t=0: the burst allowance admits, the rest shed,
     and nobody waited. *)
  check_float "no time passed" 0.0 (Sim.now sim);
  check_bool "burst admitted" true (!admitted > 0);
  check_bool "excess refused" true (!refused > 0);
  check_int "shed counter" (64 * !refused) (Limits.net_shed limits)

(* Shed admission is atomic across the PPS and bandwidth buckets: a
   burst refused by one limit must not drain the other. *)
let test_limits_shed_atomic_across_buckets () =
  let sim = Sim.create () in
  (* 1000 pps, effectively unlimited bandwidth. *)
  let limits = Limits.custom_net ~policy:Limits.Shed ~pps:1000.0 ~gbit_s:1000.0 () in
  Sim.spawn sim (fun () ->
      (* The PPS burst is 2: a 64-packet burst always fails the PPS
         bucket; repeating it must leave the bandwidth bucket full. *)
      for _ = 1 to 100 do
        ignore (Limits.net_admit limits ~packets:64 ~bytes_:1_000_000)
      done;
      (* A conforming single packet still gets through: the bandwidth
         bucket was never charged by the refused bursts. *)
      check_bool "small burst admitted" true (Limits.net_admit limits ~packets:1 ~bytes_:1_000_000));
  Sim.run sim

(* A Shed blk bucket offered four times its rate: every request it does
   not admit is counted as shed, and only those. *)
let test_limits_blk_shed_counts () =
  let sim = Sim.create () in
  let limits = Limits.cloud_blk ~policy:Limits.Shed () in
  let offered = 1000 and admitted = ref 0 in
  Sim.spawn sim (fun () ->
      (* 100K requests/s against the 25K IOPS bucket, for 10 ms. *)
      for _ = 1 to offered do
        if Limits.blk_admit limits ~bytes_:4096 then incr admitted;
        Sim.delay 10_000.0
      done);
  Sim.run sim;
  check_bool "some admitted" true (!admitted > 0);
  check_bool "excess shed" true (!admitted < offered);
  check_int "shed = offered - admitted" (offered - !admitted) (Limits.blk_shed limits)

let overload_suites =
  [
    ( "cloud.vswitch.overload",
      [
        Alcotest.test_case "egress overflow drops" `Quick test_vswitch_egress_overflow_drops;
      ] );
    ( "cloud.blockstore.admission",
      [
        Alcotest.test_case "rejects over queue" `Quick test_blockstore_rejects_over_queue;
        Alcotest.test_case "rejection costs rtt only" `Quick test_blockstore_rejection_costs_rtt_only;
      ] );
    ( "cloud.control_plane.ceiling",
      [
        Alcotest.test_case "utilization ceiling" `Quick test_control_plane_admission_ceiling;
        Alcotest.test_case "class ceiling" `Quick test_control_plane_class_ceiling;
      ] );
    ( "cloud.limits.shed",
      [
        Alcotest.test_case "never blocks" `Quick test_limits_shed_never_blocks;
        Alcotest.test_case "atomic across buckets" `Quick test_limits_shed_atomic_across_buckets;
        Alcotest.test_case "blk sheds what it refuses" `Quick test_limits_blk_shed_counts;
      ] );
  ]

let suites = suites @ overload_suites
