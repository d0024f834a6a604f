(* Tests for the virtio substrate: rings, PCI transport, devices. *)

open Bm_engine
open Bm_virtio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt ?(size = 64) id =
  Packet.make ~id ~src:0 ~dst:1 ~size ~protocol:Packet.Udp ~sent_at:0.0 ()

(* ------------------------------------------------------------------ *)
(* Vring basics *)

let test_vring_create_validation () =
  Alcotest.check_raises "non power of two" (Invalid_argument "Vring.create: size must be a power of two in [2, 32768]")
    (fun () -> ignore (Vring.create ~size:100));
  let r = Vring.create ~size:8 in
  check_int "size" 8 (Vring.size r);
  check_int "all free" 8 (Vring.num_free r)

let test_vring_roundtrip () =
  let r = Vring.create ~size:8 in
  let p = pkt 1 in
  (match Vring.add r ~out:[ 12; 64 ] ~in_:[] p with
  | None -> Alcotest.fail "add failed"
  | Some head ->
    check_int "two descs consumed" 6 (Vring.num_free r);
    check_int "avail pending" 1 (Vring.avail_pending r);
    (match Vring.pop_avail r with
    | None -> Alcotest.fail "nothing avail"
    | Some popped ->
      check_int "head matches" head popped;
      check_int "out bytes" 76 (Vring.out_bytes r ~head);
      check_int "in bytes" 0 (Vring.in_bytes r ~head);
      check_int "descriptors" 2 (Vring.descriptors r ~head);
      check_bool "payload preserved" true (Vring.payload r ~head == p));
    Vring.push_used r ~head ~written:0;
    (match Vring.pop_used r with
    | Some (payload, written) ->
      check_bool "payload back" true (payload == p);
      check_int "written" 0 written
    | None -> Alcotest.fail "no used entry"));
  check_int "descs recycled" 8 (Vring.num_free r)

let test_vring_fills_up () =
  let r = Vring.create ~size:4 in
  (* Each request takes 2 descriptors: only 2 fit. *)
  check_bool "1st" true (Vring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 1) <> None);
  check_bool "2nd" true (Vring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 2) <> None);
  check_bool "3rd rejected" true (Vring.add r ~out:[ 12; 64 ] ~in_:[] (pkt 3) = None);
  check_int "no free" 0 (Vring.num_free r)

let test_vring_fifo_order () =
  let r = Vring.create ~size:16 in
  for i = 1 to 5 do
    ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt i))
  done;
  for i = 1 to 5 do
    match Vring.pop_avail r with
    | Some head -> check_int "fifo" i (Vring.payload r ~head).Packet.id
    | None -> Alcotest.fail "missing chain"
  done

let test_vring_out_of_order_completion () =
  let r = Vring.create ~size:16 in
  let heads = List.filter_map (fun i -> Vring.add r ~out:[ 64 ] ~in_:[] (pkt i)) [ 1; 2; 3 ] in
  List.iter (fun _ -> ignore (Vring.pop_avail r)) heads;
  (* Complete in reverse order: driver reaps in completion order. *)
  List.iter (fun head -> Vring.push_used r ~head ~written:0) (List.rev heads);
  let ids =
    List.filter_map (fun _ -> Option.map (fun (p, _) -> p.Packet.id) (Vring.pop_used r)) heads
  in
  Alcotest.(check (list int)) "completion order" [ 3; 2; 1 ] ids;
  check_int "all recycled" 16 (Vring.num_free r)

let test_vring_set_payload () =
  let r = Vring.create ~size:8 in
  let placeholder = pkt 0 in
  (match Vring.add r ~out:[] ~in_:[ 12; 1536 ] placeholder with
  | None -> Alcotest.fail "add failed"
  | Some head ->
    ignore (Vring.pop_avail r);
    let received = pkt 42 in
    Vring.set_payload r ~head received;
    Vring.push_used r ~head ~written:received.Packet.size;
    (match Vring.pop_used r with
    | Some (p, written) ->
      check_int "device payload" 42 p.Packet.id;
      check_int "written" 64 written
    | None -> Alcotest.fail "no used"))

let test_vring_push_used_unpopped_rejected () =
  let r = Vring.create ~size:8 in
  Alcotest.check_raises "bogus head"
    (Invalid_argument "Vring.push_used: head not outstanding") (fun () ->
      Vring.push_used r ~head:3 ~written:0)

let test_vring_index_wraparound () =
  let r = Vring.create ~size:4 in
  (* Cycle far past 2^16 to exercise free-running index wrap. *)
  for i = 0 to 70_000 do
    match Vring.add r ~out:[ 64 ] ~in_:[] (pkt i) with
    | None -> Alcotest.fail "ring should never be full in lockstep"
    | Some head ->
      (match Vring.pop_avail r with
      | Some popped -> check_int "lockstep id" i (Vring.payload r ~head:popped).Packet.id
      | None -> Alcotest.fail "avail missing");
      Vring.push_used r ~head ~written:0;
      (match Vring.pop_used r with
      | Some (p, _) -> if p.Packet.id <> i then Alcotest.failf "wrap mismatch at %d" i
      | None -> Alcotest.fail "used missing")
  done;
  check_bool "invariants hold after wrap" true (Vring.check_invariants r = Ok ())

(* Random driver/device interleaving preserving all ring invariants. *)
let prop_vring_random_ops =
  QCheck.Test.make ~name:"vring invariants under random op interleavings" ~count:300
    QCheck.(pair (int_range 0 3) (list_of_size (Gen.int_range 10 400) (int_range 0 99)))
    (fun (size_exp, ops) ->
      let size = 4 lsl size_exp in
      let r = Vring.create ~size in
      let popped = Queue.create () in
      let added = ref 0 and reaped = ref 0 in
      let step op =
        if op < 40 then begin
          (* driver add: 1-3 segments *)
          let nsegs = 1 + (op mod 3) in
          match Vring.add r ~out:(List.init nsegs (fun i -> 64 * (i + 1))) ~in_:[] (pkt op) with
          | Some _ -> incr added
          | None -> ()
        end
        else if op < 70 then begin
          match Vring.pop_avail r with
          | Some head -> Queue.add head popped
          | None -> ()
        end
        else if op < 85 then begin
          match Queue.take_opt popped with
          | Some head -> Vring.push_used r ~head ~written:0
          | None -> ()
        end
        else
          match Vring.pop_used r with Some _ -> incr reaped | None -> ()
      in
      List.iter step ops;
      match Vring.check_invariants r with
      | Ok () -> !reaped <= !added
      | Error e -> QCheck.Test.fail_report e)

let prop_vring_conservation =
  QCheck.Test.make ~name:"every added payload is reaped exactly once" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 1 1000))
    (fun ids ->
      let r = Vring.create ~size:16 in
      let seen = Hashtbl.create 64 in
      let submit_and_drain id =
        match Vring.add r ~out:[ 64 ] ~in_:[] (pkt id) with
        | None ->
          (* ring full: drain device and driver sides, then retry once *)
          (match Vring.pop_avail r with
          | Some head -> Vring.push_used r ~head ~written:0
          | None -> ());
          (match Vring.pop_used r with
          | Some (p, _) -> Hashtbl.replace seen p.Packet.id (1 + Option.value ~default:0 (Hashtbl.find_opt seen p.Packet.id))
          | None -> ());
          ignore (Vring.add r ~out:[ 64 ] ~in_:[] (pkt id))
        | Some _ -> ()
      in
      List.iter submit_and_drain ids;
      (* Drain everything. *)
      let rec drain () =
        match Vring.pop_avail r with
        | Some head ->
          Vring.push_used r ~head ~written:0;
          drain ()
        | None -> ()
      in
      drain ();
      let rec reap () =
        match Vring.pop_used r with
        | Some (p, _) ->
          Hashtbl.replace seen p.Packet.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt seen p.Packet.id));
          reap ()
        | None -> ()
      in
      reap ();
      Hashtbl.fold (fun _ n ok -> ok && n >= 1) seen true
      && Vring.check_invariants r = Ok ())

(* Random driver and device steps around the 2^16 index wrap, with
   chains of every shape: each popped head reads back the chain that was
   added (byte totals per direction, and an F_NEXT chain of the added
   length), and each reaped entry the payload and written count that
   were set. Payloads are ints from 0, so an immediate payload equal to
   the ring's empty cell is exercised too. *)
let prop_vring_chains_read_back =
  QCheck.Test.make ~name:"popped heads read back their chains across the 2^16 wrap" ~count:30
    QCheck.(
      triple (int_range 0 3) (int_range 0 24)
        (list_of_size (Gen.int_range 50 400) (int_range 0 99)))
    (fun (size_exp, before_wrap, ops) ->
      let r = Vring.create ~size:(4 lsl size_exp) in
      for _ = 1 to 0x10000 - before_wrap do
        match Vring.add r ~out:[ 1 ] ~in_:[] 0 with
        | Some head ->
          ignore (Vring.pop_avail r);
          Vring.push_used r ~head ~written:0;
          ignore (Vring.pop_used r)
        | None -> assert false
      done;
      let chains = Hashtbl.create 16 (* head -> (id, out bytes, in bytes, descriptors) *) in
      let popped = ref [] and next_id = ref 0 and ok = ref true in
      let expect b = if not b then ok := false in
      let sum = List.fold_left ( + ) 0 in
      let pop () =
        match Vring.pop_avail r with
        | Some head ->
          let id, o, i, n = Hashtbl.find chains head in
          expect (Vring.payload r ~head = id);
          expect (Vring.out_bytes r ~head = o && Vring.in_bytes r ~head = i);
          expect (Vring.descriptors r ~head = n);
          popped := head :: !popped
        | None -> ()
      in
      let complete k =
        match !popped with
        | [] -> ()
        | heads ->
          let head = List.nth heads (k mod List.length heads) in
          popped := List.filter (( <> ) head) heads;
          let id, _, _, _ = Hashtbl.find chains head in
          Vring.push_used r ~head ~written:(3 * id)
      in
      let reap () =
        let head = Vring.next_used r in
        match Vring.pop_used r with
        | Some (id, written) ->
          let added, _, _, _ = Hashtbl.find chains head in
          expect (id = added && written = 3 * id);
          Hashtbl.remove chains head
        | None -> expect (head = -1)
      in
      let step op =
        if op < 35 then begin
          let nout = op mod 3 and nin = op / 3 mod 3 in
          let out = List.init (if nout + nin = 0 then 1 else nout) (fun i -> (10 * op) + i) in
          let in_ = List.init nin (fun i -> (7 * op) + i + 1) in
          let id = !next_id in
          match Vring.add r ~out ~in_ id with
          | Some head ->
            incr next_id;
            Hashtbl.replace chains head (id, sum out, sum in_, List.length out + List.length in_)
          | None -> ()
        end
        else if op < 60 then pop ()
        else if op < 80 then complete op
        else reap ();
        expect (Vring.check_invariants r = Ok ())
      in
      List.iter step ops;
      while Vring.avail_pending r > 0 do
        pop ()
      done;
      while !popped <> [] do
        complete 0
      done;
      while Vring.used_pending r > 0 do
        reap ()
      done;
      !ok && Hashtbl.length chains = 0 && Vring.num_free r = Vring.size r)

(* One sink-less two-segment add, pop, push_used and pop_used cycle
   allocates the caller's segment list (6 words), the two heads' [Some]
   (2 + 2) and the reaped pair in its [Some] (5): the ring itself
   allocates nothing. *)
let test_vring_cycle_words () =
  let r = Vring.create ~size:8 in
  let p = pkt 1 and len = Sys.opaque_identity 64 in
  let cycle () =
    match Vring.add r ~out:[ 12; len ] ~in_:[] p with
    | None -> Alcotest.fail "ring full"
    | Some head ->
      ignore (Vring.pop_avail r);
      Vring.push_used r ~head ~written:0;
      ignore (Vring.pop_used r)
  in
  Alcotest.(check (float 0.0)) "words/cycle" 15.0 (Test_observability.words_per_call cycle)

(* ------------------------------------------------------------------ *)
(* Virtio PCI *)

let test_pci_probe_happy_path () =
  let accesses = ref 0 in
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:2 ~queue_size:256
      ~on_access:(fun () -> incr accesses)
  in
  (match Virtio_pci.probe pci ~driver_features:Feature.default_net with
  | Ok (features, queues, size) ->
    check_bool "mrg_rxbuf negotiated" true (Feature.contains features Feature.mrg_rxbuf);
    check_int "queues" 2 queues;
    check_int "queue size" 256 size
  | Error e -> Alcotest.fail e);
  check_bool "driver ok" true (Virtio_pci.driver_ok pci);
  check_bool "costed accesses" true (!accesses >= 10);
  check_int "counted equally" !accesses (Virtio_pci.access_count pci)

let test_pci_feature_subset_enforced () =
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Blk ~num_queues:1 ~queue_size:128 ~on_access:ignore
  in
  (* A driver asking for net-only features on a blk device negotiates the
     intersection. *)
  match Virtio_pci.probe pci ~driver_features:(Feature.default_blk lor Feature.mrg_rxbuf) with
  | Ok (features, _, _) ->
    check_bool "mrg_rxbuf not granted" false (Feature.contains features Feature.mrg_rxbuf);
    check_bool "blk features granted" true (features = Feature.default_blk)
  | Error e -> Alcotest.fail e

let test_pci_reset_clears_state () =
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:1 ~queue_size:64 ~on_access:ignore
  in
  (match Virtio_pci.probe pci ~driver_features:Feature.default_net with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Virtio_pci.write pci Virtio_pci.Device_status 0;
  check_bool "driver_ok cleared" false (Virtio_pci.driver_ok pci);
  check_int "features cleared" 0 (Virtio_pci.read pci Virtio_pci.Driver_features)

let test_pci_readonly_registers () =
  let pci =
    Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:1 ~queue_size:64 ~on_access:ignore
  in
  Alcotest.check_raises "write vendor"
    (Invalid_argument "Virtio_pci: write to read-only register") (fun () ->
      Virtio_pci.write pci Virtio_pci.Vendor_id 0)

(* ------------------------------------------------------------------ *)
(* Virtio net device *)

let test_net_xmit_and_backend_drain () =
  let dev = Virtio_net.create ~on_access:ignore () in
  let kicks = ref 0 in
  Virtio_net.set_notify dev (fun () -> incr kicks);
  check_bool "xmit ok" true (Virtio_net.xmit dev (pkt 7));
  check_int "kicked" 1 !kicks;
  (* Backend drains the tx ring. *)
  let ring = Virtio_net.tx_ring dev in
  (match Vring.pop_avail ring with
  | Some head ->
    check_int "hdr+payload" (12 + 64) (Vring.out_bytes ring ~head);
    Vring.push_used ring ~head ~written:0
  | None -> Alcotest.fail "backend saw nothing");
  check_int "reaped" 1 (Virtio_net.reap_tx dev)

let test_net_rx_path () =
  let dev = Virtio_net.create ~on_access:ignore () in
  let irqs = ref 0 in
  Virtio_net.set_interrupt dev (fun () -> incr irqs);
  let posted = Virtio_net.refill_rx dev ~target:32 in
  check_int "posted 32" 32 posted;
  check_int "idempotent refill" 0 (Virtio_net.refill_rx dev ~target:32);
  (* Device delivers two packets. *)
  let ring = Virtio_net.rx_ring dev in
  List.iter
    (fun id ->
      match Vring.pop_avail ring with
      | Some head ->
        let p = pkt id in
        Vring.set_payload ring ~head p;
        Vring.push_used ring ~head ~written:p.Packet.size;
        Virtio_net.fire_interrupt dev
      | None -> Alcotest.fail "no rx buffer")
    [ 100; 101 ];
  check_int "two interrupts" 2 !irqs;
  let received = Virtio_net.reap_rx dev in
  Alcotest.(check (list int)) "payload ids" [ 100; 101 ]
    (List.map (fun p -> p.Packet.id) received);
  (* Buffers were consumed; refill tops it back up. *)
  check_int "refill replaces" 2 (Virtio_net.refill_rx dev ~target:32)

let test_net_tx_full_drops () =
  let dev = Virtio_net.create ~queue_size:4 ~on_access:ignore () in
  (* queue_size 4, each packet = 2 descs -> 2 packets fit *)
  check_bool "1st" true (Virtio_net.xmit dev (pkt 1));
  check_bool "2nd" true (Virtio_net.xmit dev (pkt 2));
  check_bool "3rd dropped" false (Virtio_net.xmit dev (pkt 3));
  check_int "drop counted" 1 (Virtio_net.tx_dropped dev)

let test_net_probe () =
  let accesses = ref 0 in
  let dev = Virtio_net.create ~on_access:(fun () -> incr accesses) () in
  (match Virtio_net.probe dev with Ok () -> () | Error e -> Alcotest.fail e);
  check_bool "probe costs accesses" true (!accesses > 0)

(* ------------------------------------------------------------------ *)
(* Virtio blk device *)

let test_blk_submit_complete () =
  let sim = Sim.create () in
  let dev = Virtio_blk.create ~on_access:ignore () in
  let latency = ref nan in
  Sim.spawn sim (fun () ->
      let req = Virtio_blk.make_req ~op:Virtio_blk.Read ~sector:0 ~bytes:4096 ~now:(Sim.clock ()) in
      check_bool "submitted" true (Virtio_blk.submit dev req);
      let done_at = Sim.Ivar.read req.Virtio_blk.done_ in
      latency := done_at -. req.Virtio_blk.submitted_at);
  (* Backend: serve the request 100us later. *)
  Sim.spawn sim (fun () ->
      Sim.delay 100_000.0;
      let ring = Virtio_blk.ring dev in
      (match Vring.pop_avail ring with
      | Some head ->
        (* read request: header out, data + status in *)
        check_int "out = header" 16 (Vring.out_bytes ring ~head);
        check_int "in = data+status" 4097 (Vring.in_bytes ring ~head);
        check_int "three descriptors" 3 (Vring.descriptors ring ~head);
        Vring.push_used ring ~head ~written:4097
      | None -> Alcotest.fail "no request");
      ignore (Virtio_blk.reap dev));
  Sim.run sim;
  Alcotest.(check (float 1.0)) "latency = backend delay" 100_000.0 !latency

let test_blk_write_layout () =
  let dev = Virtio_blk.create ~on_access:ignore () in
  let req = Virtio_blk.make_req ~op:Virtio_blk.Write ~sector:8 ~bytes:8192 ~now:0.0 in
  check_bool "submitted" true (Virtio_blk.submit dev req);
  let ring = Virtio_blk.ring dev in
  match Vring.pop_avail ring with
  | Some head ->
    check_int "out = header+data" (16 + 8192) (Vring.out_bytes ring ~head);
    check_int "in = status" 1 (Vring.in_bytes ring ~head)
  | None -> Alcotest.fail "no request"

let test_blk_queue_depth () =
  let dev = Virtio_blk.create ~on_access:ignore () in
  (* Read = 3 descriptors -> 42 fit in 128, the 43rd is rejected. *)
  let submit () =
    Virtio_blk.submit dev (Virtio_blk.make_req ~op:Virtio_blk.Read ~sector:0 ~bytes:4096 ~now:0.0)
  in
  for i = 1 to 42 do
    check_bool (string_of_int i) true (submit ())
  done;
  check_bool "43 rejected" false (submit ())

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "virtio.vring",
      [
        Alcotest.test_case "create validation" `Quick test_vring_create_validation;
        Alcotest.test_case "roundtrip" `Quick test_vring_roundtrip;
        Alcotest.test_case "fills up" `Quick test_vring_fills_up;
        Alcotest.test_case "FIFO avail order" `Quick test_vring_fifo_order;
        Alcotest.test_case "out-of-order completion" `Quick test_vring_out_of_order_completion;
        Alcotest.test_case "device sets payload" `Quick test_vring_set_payload;
        Alcotest.test_case "push_used validation" `Quick test_vring_push_used_unpopped_rejected;
        Alcotest.test_case "index wraparound past 2^16" `Quick test_vring_index_wraparound;
        Alcotest.test_case "cycle allocation" `Quick test_vring_cycle_words;
      ] );
    qsuite "virtio.vring.prop"
      [ prop_vring_random_ops; prop_vring_conservation; prop_vring_chains_read_back ];
    ( "virtio.pci",
      [
        Alcotest.test_case "probe happy path" `Quick test_pci_probe_happy_path;
        Alcotest.test_case "feature subset" `Quick test_pci_feature_subset_enforced;
        Alcotest.test_case "reset clears state" `Quick test_pci_reset_clears_state;
        Alcotest.test_case "read-only registers" `Quick test_pci_readonly_registers;
      ] );
    ( "virtio.net",
      [
        Alcotest.test_case "xmit / backend drain" `Quick test_net_xmit_and_backend_drain;
        Alcotest.test_case "rx path" `Quick test_net_rx_path;
        Alcotest.test_case "tx full drops" `Quick test_net_tx_full_drops;
        Alcotest.test_case "probe" `Quick test_net_probe;
      ] );
    ( "virtio.blk",
      [
        Alcotest.test_case "submit/complete" `Quick test_blk_submit_complete;
        Alcotest.test_case "write layout" `Quick test_blk_write_layout;
        Alcotest.test_case "queue depth" `Quick test_blk_queue_depth;
      ] );
  ]

(* Payload accessor errors. *)
let test_vring_payload_accessor () =
  let r = Vring.create ~size:8 in
  Alcotest.check_raises "absent head" (Invalid_argument "Vring.payload: head not outstanding")
    (fun () -> ignore (Vring.payload r ~head:2));
  match Vring.add r ~out:[ 64 ] ~in_:[] (pkt 9) with
  | Some head -> check_int "payload visible" 9 (Vring.payload r ~head).Packet.id
  | None -> Alcotest.fail "add failed"

let accessor_suites =
  [ ("virtio.accessors", [ Alcotest.test_case "payload accessor" `Quick test_vring_payload_accessor ]) ]

let suites = suites @ accessor_suites
