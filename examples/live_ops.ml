(* Day-2 operations: the paper's §6 roadmap, running.

   1. Live-upgrade a guest's bm-hypervisor process (Orthus-style) while
      it serves storage I/O — zero lost requests, a bounded blip.
   2. Turn on IO-Bond flow offload and watch the base server's CPU drop
      out of the packet path.
   3. Convert a bm-guest to a special vm-guest at run time (on-demand
      virtualization) and live-migrate it with iterative pre-copy.
   4. Run an SGX enclave natively on the bare-metal guest.

     dune exec examples/live_ops.exe *)

open Bm_engine
open Bm_guest
open Bm_hyp
open Bm_workload

let () =
  (* --- 1. live upgrade under load ------------------------------- *)
  let tb = Testbed.make ~seed:77 () in
  let server, guest = Testbed.bm_guest tb in
  let completed = ref 0 and worst = ref 0.0 in
  Sim.spawn tb.Testbed.sim (fun () ->
      for _ = 1 to 500 do
        let l = guest.Instance.blk ~op:`Read ~bytes_:4096 in
        worst := Float.max !worst l;
        incr completed
      done);
  Sim.spawn tb.Testbed.sim (fun () ->
      Sim.delay (Simtime.ms 15.0);
      match Bm_hypervisor.live_upgrade server ~name:"bm0" with
      | Ok v -> Printf.printf "1. live upgrade: backend now v%d, mid-flight\n" v
      | Error e -> failwith e);
  Testbed.run tb;
  Printf.printf "   %d/500 I/Os survived; worst latency %.1fms (blackout bounded)\n\n" !completed
    (!worst /. 1e6);

  (* --- 2. flow offload ------------------------------------------ *)
  let tb2 = Testbed.make ~seed:78 () in
  let server2 =
    Bm_hypervisor.create_server tb2.Testbed.sim tb2.Testbed.rng ~fabric:tb2.Testbed.fabric
      ~storage:tb2.Testbed.storage ()
  in
  let unlimited = Bm_cloud.Limits.unlimited_net () in
  let g name =
    Result.get_ok (Bm_hypervisor.provision server2 ~name ~net_limits:unlimited ~offload:true ())
  in
  let a = g "a" and b = g "b" in
  let r =
    Netperf.udp_pps tb2.Testbed.sim ~src:a ~dst:b ~senders:8 ~batch:64
      ~duration:(Simtime.ms 40.0) ()
  in
  let util =
    Bm_hw.Cores.utilization (Bm_hypervisor.base_cores server2) ~now:(Sim.now tb2.Testbed.sim)
  in
  (match Bm_hypervisor.offload_table server2 ~name:"a" with
  | Some ot ->
    Printf.printf "2. offload: %.1fM PPS with base cores %.1f%% busy (%d flows, %d hits)\n\n"
      (r.Netperf.received_pps /. 1e6)
      (100.0 *. util) (Bm_iobond.Offload.occupancy ot) (Bm_iobond.Offload.hits ot)
  | None -> ());

  (* --- 3. on-demand virtualization + pre-copy migration --------- *)
  let tb3 = Testbed.make ~seed:79 () in
  let _, bm = Testbed.bm_guest tb3 in
  Sim.spawn tb3.Testbed.sim (fun () ->
      match Live_migration.inject tb3.Testbed.sim (Rng.create ~seed:79) bm with
      | Error e -> failwith e
      | Ok inj -> (
        Printf.printf "3. thin hypervisor injected: guest now reports %s\n"
          (Instance.kind_name (Live_migration.as_instance inj));
        match Live_migration.migrate inj ~dirty_rate_gb_s:1.5 ~mem_gb:64 () with
        | Ok s ->
          Printf.printf
            "   migrated: %d pre-copy rounds, %.1f GB moved, blackout %.1fms, total %.1fs\n\n"
            s.Live_migration.precopy_rounds
            (s.Live_migration.bytes_copied /. 1e9)
            (s.Live_migration.blackout_ns /. 1e6)
            (s.Live_migration.total_ns /. 1e9)
        | Error e -> failwith e));
  Testbed.run tb3;

  (* --- 4. SGX on bare metal ------------------------------------- *)
  let tb4 = Testbed.make ~seed:80 () in
  let _, bm4 = Testbed.bm_guest tb4 in
  let _, vm4 = Testbed.vm_guest tb4 in
  (match Sgx.create vm4 ~name:"keys" ~epc_mb:32 with
  | Ok _ -> ()
  | Error e -> Printf.printf "4. SGX on the vm-guest: %s\n" e);
  (match Sgx.create bm4 ~name:"keys" ~epc_mb:32 with
  | Error e -> failwith e
  | Ok enclave ->
    Sim.spawn tb4.Testbed.sim (fun () ->
        for _ = 1 to 1000 do
          Sgx.ecall enclave ~work_ns:2_000.0
        done);
    Testbed.run tb4;
    let quote = Sgx.attest enclave in
    Printf.printf "   SGX on the bm-guest: %d ecalls, quote verifies: %b\n"
      (Sgx.transitions enclave)
      (Sgx.verify_quote ~name:"keys" ~quote))
