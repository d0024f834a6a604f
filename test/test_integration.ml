(* Cross-library integration tests: multi-tenant density, cross-substrate
   traffic, end-to-end failure behaviour. *)

open Bm_engine
open Bm_virtio
open Bm_guest
open Bm_hyp
open Bm_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Eight tenants on one base server, all doing I/O at once: the paper's
   density claim only holds if co-resident bm-guests don't corrupt or
   starve each other. *)
let test_eight_tenants_coexist () =
  let tb = Testbed.make ~seed:31 () in
  let server =
    Bm_hypervisor.create_server tb.Testbed.sim tb.Testbed.rng ~fabric:tb.Testbed.fabric
      ~storage:tb.Testbed.storage ~boards:8 ()
  in
  let guests =
    List.init 8 (fun i ->
        match Bm_hypervisor.provision server ~name:(Printf.sprintf "g%d" i) () with
        | Ok g -> g
        | Error e -> failwith e)
  in
  check_int "no board left" 0 (Bm_hypervisor.free_boards server);
  let completed = Array.make 8 0 in
  List.iteri
    (fun i g ->
      Sim.spawn tb.Testbed.sim (fun () ->
          for _ = 1 to 50 do
            ignore (g.Instance.blk ~op:`Read ~bytes_:4096);
            completed.(i) <- completed.(i) + 1
          done))
    guests;
  Testbed.run tb;
  Array.iteri (fun i n -> check_int (Printf.sprintf "tenant %d finished" i) 50 n) completed

(* A vm-guest talks to a bm-guest across the fabric: interoperability
   means the substrates share one network namespace. *)
let test_cross_substrate_traffic () =
  let tb = Testbed.make ~seed:32 () in
  let _, bm = Testbed.bm_guest tb in
  let _, vm = Testbed.vm_guest tb in
  let got = ref 0 in
  bm.Instance.set_rx_handler (fun pkt ->
      got := !got + pkt.Packet.count;
      (* echo back *)
      ignore
        (bm.Instance.send
           (Packet.make ~id:pkt.Packet.id ~src:bm.Instance.endpoint ~dst:pkt.Packet.src
              ~size:pkt.Packet.size ~protocol:Packet.Udp ~sent_at:(Sim.clock ()) ())));
  let echoed = ref 0 in
  vm.Instance.set_rx_handler (fun pkt -> echoed := !echoed + pkt.Packet.count);
  Sim.spawn tb.Testbed.sim (fun () ->
      for i = 1 to 20 do
        ignore
          (vm.Instance.send
             (Packet.make ~id:i ~src:vm.Instance.endpoint ~dst:bm.Instance.endpoint ~size:200
                ~protocol:Packet.Udp ~sent_at:(Sim.clock ()) ()))
      done);
  Sim.run ~until:Simtime.(ms 100.0) tb.Testbed.sim;
  check_int "vm->bm delivered" 20 !got;
  check_int "bm->vm echoed" 20 !echoed

(* RPC between a client on one server and a MariaDB bm-guest on another,
   while a second tenant floods its own network: rate limits must keep
   the tenants isolated. *)
let test_noisy_tenant_rate_isolated () =
  let tb = Testbed.make ~seed:33 () in
  let server, victim, noisy = Testbed.bm_pair tb in
  ignore server;
  (* The noisy tenant blasts UDP at its own 4M PPS limit toward a sink. *)
  let client = Testbed.client_box tb in
  let sink = ref 0 in
  client.Instance.set_rx_handler (fun pkt -> sink := !sink + pkt.Packet.count);
  Sim.spawn tb.Testbed.sim (fun () ->
      let rec blast i =
        if Sim.clock () < Simtime.ms 60.0 then begin
          ignore
            (noisy.Instance.send
               (Packet.small_udp ~id:i ~src:noisy.Instance.endpoint
                  ~dst:client.Instance.endpoint ~count:32 ~sent_at:(Sim.clock ()) ()));
          blast (i + 1)
        end
      in
      blast 0);
  (* Meanwhile the victim serves storage I/O. *)
  let lat = Stats.Summary.create () in
  Sim.spawn tb.Testbed.sim (fun () ->
      for _ = 1 to 300 do
        Stats.Summary.add lat (victim.Instance.blk ~op:`Read ~bytes_:4096)
      done);
  Sim.run ~until:Simtime.(ms 120.0) tb.Testbed.sim;
  check_int "victim completed all I/O" 300 (Stats.Summary.count lat);
  (* The victim's storage latency stays in the normal cloud band. *)
  check_bool "victim latency sane" true (Stats.Summary.mean lat < 400_000.0)

(* Full-stack RPC across substrates: vm client driving the bm MariaDB. *)
let test_vm_client_bm_database () =
  let tb = Testbed.make ~seed:34 () in
  let _, db = Testbed.bm_guest tb in
  let _, client = Testbed.vm_guest tb in
  Mariadb.serve db;
  let r =
    Mariadb.sysbench tb.Testbed.sim ~client ~server:db ~pattern:Mariadb.Read_only
      ~duration:(Simtime.ms 50.0) ()
  in
  check_bool "queries flowed" true (r.Mariadb.queries > 1_000);
  check_bool "latency sub-10ms" true (r.Mariadb.avg_ms < 10.0)

(* Bridge invariants hold after a full application benchmark. *)
let test_bridge_invariants_after_load () =
  let tb = Testbed.make ~seed:35 () in
  let server_hv, server = Testbed.bm_guest tb in
  let client = Testbed.client_box tb in
  Nginx.serve server ();
  ignore (Nginx.ab tb.Testbed.sim ~client ~server ~concurrency:64 ~requests:2_000);
  ignore server_hv;
  match Bm_hypervisor.guest_board server_hv ~name:"bm0" with
  | None -> Alcotest.fail "board missing"
  | Some board ->
    let iobond = Board.iobond board in
    check_bool "dma moved traffic" true (Bm_hw.Dma.bytes_copied (Bm_iobond.Iobond.dma iobond) > 1e5);
    check_bool "mailbox saw doorbell traffic" true
      (Bm_iobond.Mailbox.tail_writes (Bm_iobond.Iobond.mailbox iobond) > 100)

(* Over-draining and misuse of the hypervisor API fail cleanly. *)
let test_capacity_errors_are_clean () =
  let tb = Testbed.make ~seed:37 () in
  let server =
    Bm_hypervisor.create_server tb.Testbed.sim tb.Testbed.rng ~fabric:tb.Testbed.fabric
      ~storage:tb.Testbed.storage ~boards:2 ()
  in
  ignore (Result.get_ok (Bm_hypervisor.provision server ~name:"a" ()));
  ignore (Result.get_ok (Bm_hypervisor.provision server ~name:"b" ()));
  (match Bm_hypervisor.provision server ~name:"c" () with
  | Ok _ -> Alcotest.fail "third guest on two boards"
  | Error e -> check_bool "useful error" true (e <> ""));
  check_int "still two in use" 0 (Bm_hypervisor.free_boards server)

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "eight tenants coexist" `Quick test_eight_tenants_coexist;
        Alcotest.test_case "cross-substrate traffic" `Quick test_cross_substrate_traffic;
        Alcotest.test_case "noisy tenant isolated" `Quick test_noisy_tenant_rate_isolated;
        Alcotest.test_case "vm client, bm database" `Quick test_vm_client_bm_database;
        Alcotest.test_case "bridge invariants after load" `Quick test_bridge_invariants_after_load;
        Alcotest.test_case "capacity errors" `Quick test_capacity_errors_are_clean;
      ] );
  ]
