(* Tests for IO-Bond: shadow vrings, mailbox, DMA bridging. *)

open Bm_engine
open Bm_virtio
open Bm_iobond

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt ?(size = 64) ?(sent_at = 0.0) id =
  Packet.make ~id ~src:0 ~dst:1 ~size ~protocol:Packet.Udp ~sent_at ()

let test_profile_costs () =
  Alcotest.(check (float 1e-9)) "fpga access 1.6us" 1600.0 (Profile.pci_emulation_ns Profile.Fpga);
  Alcotest.(check (float 1e-9)) "asic access 0.4us" 400.0 (Profile.pci_emulation_ns Profile.Asic);
  Alcotest.(check (float 1e-9)) "asic hop is 75% less" 0.25
    (Profile.register_ns Profile.Asic /. Profile.register_ns Profile.Fpga)

(* Full tx path: guest xmit -> doorbell -> forward DMA -> hv pop ->
   complete -> flush -> backward DMA -> guest interrupt -> reap. *)
let test_tx_roundtrip () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_net iobond () in
  let dev = port.Iobond.net_device in
  let irq_at = ref nan in
  Virtio_net.set_interrupt dev (fun () -> irq_at := Sim.now sim);
  let hv_got = ref None in
  (* Guest process: send one packet. *)
  Sim.spawn sim (fun () -> ignore (Virtio_net.xmit dev (pkt 1)));
  (* Hypervisor PMD process: poll the tx bridge. *)
  Sim.spawn sim (fun () ->
      let rec poll () =
        match Queue_bridge.pop port.Iobond.net_tx with
        | Some req ->
          hv_got := Some req;
          Queue_bridge.complete port.Iobond.net_tx req ~written:0 ();
          Sim.await (Queue_bridge.flush port.Iobond.net_tx)
        | None ->
          Sim.delay 100.0;
          poll ()
      in
      poll ());
  Sim.run ~until:1_000_000.0 sim;
  (match !hv_got with
  | Some req ->
    check_int "hv sees hdr+payload bytes" (12 + 64) req.Queue_bridge.out_bytes;
    check_int "packet id" 1 req.Queue_bridge.payload.Packet.id
  | None -> Alcotest.fail "request never reached the hypervisor side");
  check_bool "tx completion interrupt fired" true (Float.is_finite !irq_at);
  (* Doorbell hop (800ns) + DMA must push the event past 1us. *)
  check_bool "path has hardware latency" true (!irq_at > 1_000.0);
  check_int "guest reaps its descriptor" 1 (Virtio_net.reap_tx dev);
  check_bool "bridge invariants" true (Queue_bridge.check_invariants port.Iobond.net_tx = Ok ())

(* Rx path: hv injects a packet into a posted guest buffer. *)
let test_rx_payload_replacement () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_net iobond () in
  let dev = port.Iobond.net_device in
  let received = ref [] in
  Sim.spawn sim (fun () ->
      ignore (Virtio_net.refill_rx dev ~target:8);
      Queue_bridge.guest_notify port.Iobond.net_rx);
  Sim.spawn sim (fun () ->
      (* Wait for mirrored rx buffers, then deliver one packet. *)
      let rec wait () =
        match Queue_bridge.pop port.Iobond.net_rx with
        | Some req ->
          let p = pkt ~size:1400 99 in
          Queue_bridge.complete port.Iobond.net_rx req ~payload:p ~written:1400 ();
          Sim.await (Queue_bridge.flush port.Iobond.net_rx)
        | None ->
          Sim.delay 100.0;
          wait ()
      in
      wait ());
  Virtio_net.set_interrupt dev (fun () -> received := Virtio_net.reap_rx dev);
  Sim.run ~until:1_000_000.0 sim;
  match !received with
  | [ p ] -> check_int "delivered packet" 99 p.Packet.id
  | l -> Alcotest.failf "expected 1 packet, got %d" (List.length l)

let test_batch_single_interrupt () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_net iobond () in
  let dev = port.Iobond.net_device in
  let irqs = ref 0 in
  Virtio_net.set_interrupt dev (fun () -> incr irqs);
  Sim.spawn sim (fun () ->
      for i = 1 to 16 do
        ignore (Virtio_net.xmit dev (pkt i))
      done);
  Sim.spawn sim (fun () ->
      Sim.delay 50_000.0;
      (* PMD drains the whole batch, then flushes once. *)
      let rec drain n =
        match Queue_bridge.pop port.Iobond.net_tx with
        | Some req ->
          Queue_bridge.complete port.Iobond.net_tx req ~written:0 ();
          drain (n + 1)
        | None -> n
      in
      let n = drain 0 in
      check_int "all 16 mirrored" 16 n;
      Sim.await (Queue_bridge.flush port.Iobond.net_tx));
  Sim.run ~until:1_000_000.0 sim;
  check_int "interrupt coalescing: one MSI for the batch" 1 !irqs;
  check_int "bridge completed 16" 16 (Queue_bridge.completed port.Iobond.net_tx)

let test_fifo_preserved_across_bridge () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_net iobond () in
  let dev = port.Iobond.net_device in
  let order = ref [] in
  Sim.spawn sim (fun () ->
      for i = 1 to 10 do
        ignore (Virtio_net.xmit dev (pkt i));
        Sim.delay 10.0
      done);
  Sim.spawn sim (fun () ->
      let rec poll seen =
        if seen < 10 then
          match Queue_bridge.pop port.Iobond.net_tx with
          | Some req ->
            order := req.Queue_bridge.payload.Packet.id :: !order;
            Queue_bridge.complete port.Iobond.net_tx req ~written:0 ();
            Sim.await (Queue_bridge.flush port.Iobond.net_tx);
            poll (seen + 1)
          | None ->
            Sim.delay 50.0;
            poll seen
      in
      poll 0);
  Sim.run ~until:10_000_000.0 sim;
  Alcotest.(check (list int)) "order preserved" (List.init 10 (fun i -> i + 1)) (List.rev !order)

let test_blk_bridge_roundtrip () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_blk iobond () in
  let dev = port.Iobond.blk_device in
  let latency = ref nan in
  Sim.spawn sim (fun () ->
      let req = Virtio_blk.make_req ~op:Virtio_blk.Read ~sector:0 ~bytes:4096 ~now:(Sim.clock ()) in
      check_bool "submitted" true (Virtio_blk.submit dev req);
      let done_at = Sim.Ivar.read req.Virtio_blk.done_ in
      latency := done_at -. req.Virtio_blk.submitted_at);
  Virtio_blk.set_interrupt dev (fun () -> ignore (Virtio_blk.reap dev));
  Sim.spawn sim (fun () ->
      let rec poll () =
        match Queue_bridge.pop port.Iobond.blk_queue with
        | Some req ->
          (* Storage takes 100us, then 4KB of read data flows back. *)
          Sim.delay 100_000.0;
          Queue_bridge.complete port.Iobond.blk_queue req ~written:4097 ();
          Sim.await (Queue_bridge.flush port.Iobond.blk_queue)
        | None ->
          Sim.delay 500.0;
          poll ()
      in
      poll ());
  Sim.run ~until:10_000_000.0 sim;
  check_bool "latency > storage time" true (!latency > 100_000.0);
  check_bool "latency < storage + 20us overhead" true (!latency < 120_000.0)

let test_pci_probe_cost_fpga_vs_asic () =
  let probe_time profile =
    let sim = Sim.create () in
    let iobond = Iobond.create sim ~profile () in
    let port = Iobond.attach_net iobond () in
    let elapsed = ref nan in
    Sim.spawn sim (fun () ->
        let t0 = Sim.clock () in
        (match Virtio_net.probe port.Iobond.net_device with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        elapsed := Sim.clock () -. t0);
    Sim.run sim;
    (!elapsed, Virtio_pci.access_count (Virtio_net.pci port.Iobond.net_device))
  in
  let fpga_time, fpga_accesses = probe_time Profile.Fpga in
  let asic_time, asic_accesses = probe_time Profile.Asic in
  check_int "same access count" fpga_accesses asic_accesses;
  Alcotest.(check (float 1e-6)) "probe cost = accesses x 1.6us"
    (float_of_int fpga_accesses *. 1600.0) fpga_time;
  Alcotest.(check (float 1e-6)) "asic is 4x faster" 4.0 (fpga_time /. asic_time);
  (* Mailbox saw every forwarded access. *)
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_net iobond () in
  Sim.spawn sim (fun () -> ignore (Virtio_net.probe port.Iobond.net_device));
  Sim.run sim;
  check_int "mailbox notified per access"
    (Virtio_pci.access_count (Virtio_net.pci port.Iobond.net_device))
    (Mailbox.pci_access_count (Iobond.mailbox iobond))

let test_mailbox_tail_write_costs_hop () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let mailbox = Iobond.mailbox iobond in
  let ring = Mailbox.alloc_ring mailbox in
  let elapsed = ref nan in
  Sim.spawn sim (fun () ->
      let t0 = Sim.clock () in
      Sim.await (Mailbox.write_tail mailbox ring 42);
      elapsed := Sim.clock () -. t0);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "one register hop" 800.0 !elapsed;
  check_int "value latched" 42 (Mailbox.tail mailbox ring)

(* A Mailbox_drop window that outlasts all five attempts of one tail
   write (30 us of backoff plus five 0.8 us register hops) loses exactly
   that write; a write after the window latches. *)
let test_mailbox_lost_tail_write () =
  let sim = Sim.create () in
  let drop = { Fault.kind = Fault.Mailbox_drop; at = 0.0; duration_ns = 50_000.0 } in
  let fault = Fault.create sim { Fault.seed = 0; horizon_ns = 1e6; events = [ drop ] } in
  Fault.arm fault;
  let iobond = Iobond.create ~fault sim ~profile:Profile.Fpga () in
  let mailbox = Iobond.mailbox iobond in
  let ring = Mailbox.alloc_ring mailbox in
  let issued = 2 in
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      Sim.await (Mailbox.write_tail mailbox ring 7);
      Sim.delay 50_000.0;
      Sim.await (Mailbox.write_tail mailbox ring 9));
  Sim.run sim;
  check_int "one write lost" 1 (Mailbox.lost_tail_writes mailbox);
  check_int "latched + lost = issued" issued
    (Mailbox.tail_writes mailbox + Mailbox.lost_tail_writes mailbox);
  check_int "the later write latched" 9 (Mailbox.tail mailbox ring)

let test_dma_meters_links () =
  let sim = Sim.create () in
  let iobond = Iobond.create sim ~profile:Profile.Fpga () in
  let port = Iobond.attach_net iobond () in
  Sim.spawn sim (fun () -> ignore (Virtio_net.xmit port.Iobond.net_device (pkt ~size:1400 1)));
  Sim.spawn sim (fun () ->
      let rec poll () =
        match Queue_bridge.pop port.Iobond.net_tx with
        | Some req ->
          Queue_bridge.complete port.Iobond.net_tx req ~written:0 ();
          Sim.await (Queue_bridge.flush port.Iobond.net_tx)
        | None ->
          Sim.delay 100.0;
          poll ()
      in
      poll ());
  Sim.run ~until:1_000_000.0 sim;
  (* Forward copy: 2 descs (32B) + 1412B payload; backward: 8B used. *)
  check_bool "x4 metered" true (Bm_hw.Pcie.bytes_moved (Iobond.net_link iobond) >= 1444.0);
  check_bool "x8 metered" true (Bm_hw.Pcie.bytes_moved (Iobond.base_link iobond) >= 1444.0)

let suites =
  [
    ( "iobond",
      [
        Alcotest.test_case "profile costs" `Quick test_profile_costs;
        Alcotest.test_case "tx roundtrip" `Quick test_tx_roundtrip;
        Alcotest.test_case "rx payload replacement" `Quick test_rx_payload_replacement;
        Alcotest.test_case "batch -> one interrupt" `Quick test_batch_single_interrupt;
        Alcotest.test_case "FIFO across bridge" `Quick test_fifo_preserved_across_bridge;
        Alcotest.test_case "blk bridge roundtrip" `Quick test_blk_bridge_roundtrip;
        Alcotest.test_case "probe cost FPGA vs ASIC" `Quick test_pci_probe_cost_fpga_vs_asic;
        Alcotest.test_case "mailbox tail write" `Quick test_mailbox_tail_write_costs_hop;
        Alcotest.test_case "mailbox lost tail write" `Quick test_mailbox_lost_tail_write;
        Alcotest.test_case "DMA meters PCIe links" `Quick test_dma_meters_links;
      ] );
  ]

(* Property: random interleavings of guest sends, backend pops/completes
   and flushes preserve the bridge + both ring invariants and conserve
   packets (everything sent is eventually completed exactly once). *)
let prop_bridge_random_ops =
  QCheck.Test.make ~name:"queue bridge invariants under random schedules" ~count:60
    QCheck.(pair (int_range 1 1000) (list_of_size (Gen.int_range 20 120) (int_range 0 99)))
    (fun (seed, ops) ->
      let sim = Sim.create () in
      let iobond = Iobond.create sim ~profile:Profile.Fpga () in
      let port = Iobond.attach_net iobond () in
      let dev = port.Iobond.net_device in
      let bridge = port.Iobond.net_tx in
      Virtio_net.set_interrupt dev (fun () -> ignore (Virtio_net.reap_tx dev));
      let rng = Bm_engine.Rng.create ~seed in
      let sent = ref 0 in
      Sim.spawn sim (fun () ->
          List.iter
            (fun op ->
              if op < 50 then begin
                if Virtio_net.xmit dev (pkt op) then incr sent
              end
              else if op < 85 then begin
                match Queue_bridge.pop bridge with
                | Some req ->
                  Queue_bridge.complete bridge req ~written:0 ();
                  Sim.await (Queue_bridge.flush bridge)
                | None -> ()
              end
              else Sim.delay (Bm_engine.Rng.float rng 2_000.0))
            ops;
          (* Drain whatever is left. *)
          let rec drain () =
            Sim.delay 10_000.0;
            match Queue_bridge.pop bridge with
            | Some req ->
              Queue_bridge.complete bridge req ~written:0 ();
              Sim.await (Queue_bridge.flush bridge);
              drain ()
            | None -> if Queue_bridge.pending bridge > 0 then drain ()
          in
          drain ());
      Sim.run ~until:Simtime.(sec 1.0) sim;
      match Queue_bridge.check_invariants bridge with
      | Error e -> QCheck.Test.fail_report e
      | Ok () -> Queue_bridge.completed bridge = !sent)

(* A bridge over a bare guest ring, with its own links, DMA engine and
   mailbox: the test plays both the guest driver and the backend. *)
let bare_bridge ?(fault = Fault.none) sim ~size =
  let register_ns = Profile.register_ns Profile.Fpga in
  let base_link = Bm_hw.Pcie.x8 ~fault sim ~register_ns in
  let guest = Vring.create ~size in
  let bridge =
    Queue_bridge.create ~fault sim ~name:"bare" ~guest ~dma:(Bm_hw.Dma.create ~fault sim ())
      ~guest_link:(Bm_hw.Pcie.x4 ~fault sim ~register_ns)
      ~base_link
      ~mailbox:(Mailbox.create ~fault sim ~base_link)
  in
  (guest, bridge)

(* Pop, complete and flush whatever the shadow ring holds, [k] per
   request before it completes, until [finished]; [check] runs before
   every pop. *)
let rec serve ?(check = ignore) bridge ~finished k =
  check ();
  match Queue_bridge.pop bridge with
  | Some req ->
    k req;
    Sim.await (Queue_bridge.flush bridge);
    serve ~check bridge ~finished k
  | None ->
    if not (finished ()) then begin
      Sim.delay 1_000.0;
      serve ~check bridge ~finished k
    end

(* Random guest adds of chains of every shape, backend pops and
   completions (some replacing the payload), pauses and resumes, across
   a firmware wedge and its resync. Before every pop each outstanding
   shadow chain mirrors the guest chain it is tagged with (count,
   lengths, flags); the backend sees the byte totals the guest added;
   and each completion lands on its tagged guest head, which the guest
   reaps with the written count and payload that completion carried.
   The first broken expectation ends the run. *)
let prop_bridge_mirrors_chains =
  QCheck.Test.make ~name:"shadow chains mirror guest chains, completions land on their tags"
    ~count:40
    QCheck.(pair (int_range 0 300) (list_of_size (Gen.int_range 20 150) (int_range 0 99)))
    (fun (wedge_us, ops) ->
      let sim = Sim.create () in
      let wedge =
        { Fault.kind = Fault.Firmware_wedge; at = float_of_int wedge_us *. 1e3; duration_ns = 50e3 }
      in
      let fault = Fault.create sim { Fault.seed = 0; horizon_ns = 1e6; events = [ wedge ] } in
      Fault.arm fault;
      let guest, bridge = bare_bridge ~fault sim ~size:16 in
      Fault.subscribe fault Fault.Firmware_wedge (fun _ ->
          Sim.spawn sim (fun () ->
              Fault.block_until_clear fault Fault.Firmware_wedge;
              Queue_bridge.resync bridge));
      let shapes = Hashtbl.create 16 (* id -> (out bytes, in bytes) *) in
      let replaced = Hashtbl.create 16 and reaped = Hashtbl.create 16 in
      let added = ref 0 in
      let expect b what = if not b then QCheck.Test.fail_report what in
      let check () =
        match Queue_bridge.check_invariants bridge with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_report e
      in
      Queue_bridge.set_guest_interrupt bridge (fun () ->
          let rec reap () =
            match Vring.pop_used guest with
            | Some (p, written) ->
              (* The backend completed request [written] with payload
                 [p]: the original id, or id + 1000 when replaced. *)
              expect
                (p = if Hashtbl.mem replaced written then written + 1000 else written)
                "reaped payload is not its completion's";
              expect (not (Hashtbl.mem reaped written)) "request reaped twice";
              Hashtbl.replace reaped written ();
              reap ()
            | None -> ()
          in
          reap ();
          check ());
      let complete (req : int Queue_bridge.request) =
        let id = req.Queue_bridge.payload in
        expect
          ((req.Queue_bridge.out_bytes, req.Queue_bridge.in_bytes) = Hashtbl.find shapes id)
          "backend byte totals differ from the guest's";
        if id mod 3 = 0 then begin
          Hashtbl.replace replaced id ();
          Queue_bridge.complete bridge req ~payload:(id + 1000) ~written:id ()
        end
        else Queue_bridge.complete bridge req ~written:id ()
      in
      Sim.spawn sim (fun () ->
          List.iter
            (fun op ->
              (if op < 40 then begin
                 let nout = op mod 3 and nin = op / 3 mod 3 in
                 let out = List.init (if nout + nin = 0 then 1 else nout) (fun i -> (10 * op) + i) in
                 let in_ = List.init nin (fun i -> (7 * op) + i + 1) in
                 let id = !added in
                 match Vring.add guest ~out ~in_ id with
                 | Some _ ->
                   incr added;
                   Hashtbl.replace shapes id (List.fold_left ( + ) 0 out, List.fold_left ( + ) 0 in_);
                   Queue_bridge.guest_notify bridge
                 | None -> ()
               end
               else if op < 70 then
                 match Queue_bridge.pop bridge with
                 | Some req ->
                   complete req;
                   Sim.await (Queue_bridge.flush bridge)
                 | None -> ()
               else if op < 78 then Queue_bridge.pause bridge
               else if op < 86 then Queue_bridge.resume bridge
               else Sim.delay (float_of_int (op * 200)));
              check ())
            ops;
          Queue_bridge.resume bridge;
          serve ~check bridge ~finished:(fun () -> Hashtbl.length reaped = !added) complete);
      Sim.run ~until:Simtime.(sec 1.0) sim;
      check ();
      Hashtbl.length reaped = !added)

(* Payloads the guest has reaped are retained by neither ring: the
   guest ring and the shadow ring null a payload's cell when its
   request is reaped, while the bridge and both rings stay live. *)
let test_reaped_payloads_released () =
  let sim = Sim.create () in
  let guest, bridge = bare_bridge sim ~size:32 in
  let n = 6 in
  let weak = Weak.create (2 * n) in
  let reaped = ref 0 in
  Queue_bridge.set_guest_interrupt bridge (fun () ->
      let rec reap () = match Vring.pop_used guest with Some _ -> incr reaped; reap () | None -> () in
      reap ());
  Sim.spawn sim (fun () ->
      for i = 0 to n - 1 do
        let v = ref i in
        Weak.set weak i (Some v);
        check_bool "added" true (Vring.add guest ~out:[ 16; 64 ] ~in_:[ 1 ] v <> None)
      done;
      Queue_bridge.guest_notify bridge);
  Sim.spawn sim (fun () ->
      serve bridge
        ~finished:(fun () -> !reaped = n)
        (fun req ->
          (* Half the completions carry a fresh payload of their own. *)
          let i = !(req.Queue_bridge.payload) in
          if i mod 2 = 0 then begin
            let v = ref (n + i) in
            Weak.set weak (n + i) (Some v);
            Queue_bridge.complete bridge req ~payload:v ~written:1 ()
          end
          else Queue_bridge.complete bridge req ~written:1 ()));
  Sim.run ~until:Simtime.(ms 10.0) sim;
  check_int "all reaped" n !reaped;
  Gc.full_major ();
  Alcotest.(check (list int)) "no payload retained" []
    (List.filter (Weak.check weak) (List.init (2 * n) Fun.id));
  check_bool "bridge invariants" true (Queue_bridge.check_invariants bridge = Ok ());
  ignore (Sys.opaque_identity (guest, bridge))

let prop_suites =
  [
    ( "iobond.rings",
      [ Alcotest.test_case "reaped payloads released" `Quick test_reaped_payloads_released ] );
    ( "iobond.prop",
      List.map QCheck_alcotest.to_alcotest [ prop_bridge_random_ops; prop_bridge_mirrors_chains ] );
  ]

let suites = suites @ prop_suites
