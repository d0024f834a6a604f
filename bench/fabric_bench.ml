(* Fabric performance benchmark: measures the host-side cost of the
   link-level network model — not simulated latencies — and writes the
   numbers to a JSON file (BENCH_fabric.json at the repo root is the
   committed baseline).

   Usage:
     fabric_bench.exe [--quick] [--seed N] [--out FILE]

   Three sections:
     forward   events/sec, bursts/sec and allocated words per event of
               raw fabric forwarding across a leaf-spine topology
               (uniform random host pairs); CI gates the words/event
     ecmp      spine share spread of the flow hash over many flows
     xhost     wall-clock of the quick-scale xhost_rr experiment, run
               twice, with a structural-equality determinism check *)

open Bm_engine
module Fabric = Bm_fabric.Fabric
module Topology = Bm_fabric.Topology
module Packet = Bm_virtio.Packet
open Bench_common

let args = parse_args ~name:"fabric_bench" ~default_out:"BENCH_fabric.json"
let { quick; seed; out_file; _ } = args

(* --- raw forwarding --------------------------------------------------- *)

(* [senders] callback chains each push bursts between uniform random
   host pairs through an 8-host leaf-spine, paced just above the link
   rate so the queues stay busy without melting down. The senders are
   callbacks, like the links, so the words/event probe measures the
   fabric rather than a sender fiber's effect round trips. *)
let forward_bench ~bursts =
  let topo = Topology.clos ~hosts:8 ~tors:4 ~spines:2 () in
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let fab = Fabric.create sim (Rng.split rng) topo in
  let senders = 16 in
  let per_sender = bursts / senders in
  let next_id = ref 0 in
  for s = 1 to senders do
    let rng = Rng.split rng in
    let rec send_from k =
      if k <= per_sender then begin
        let src_host = Rng.int rng 8 in
        let dst_host = (src_host + 1 + Rng.int rng 7) mod 8 in
        incr next_id;
        Fabric.send fab ~src_host ~dst_host
          ~deliver:(fun _ -> ())
          (Packet.make ~id:!next_id ~src:(s * 1000) ~dst:(s * 1000 + 1) ~size:1500
             ~protocol:Packet.Udp ~sent_at:(Sim.now sim) ());
        Sim.schedule sim ~delay:150.0 (fun () -> send_from (k + 1))
      end
    in
    Sim.schedule sim ~delay:0.0 (fun () -> send_from 1)
  done;
  let a0 = allocated_words () in
  let (), wall_s = time (fun () -> Sim.run sim) in
  let words = allocated_words () -. a0 in
  let events = Sim.events_executed sim in
  ( float_of_int events /. wall_s,
    float_of_int (Fabric.delivered fab) /. wall_s,
    events,
    Fabric.delivered fab,
    Fabric.dropped fab,
    wall_s,
    words /. float_of_int events )

(* --- ECMP spread ------------------------------------------------------ *)

let ecmp_bench ~flows =
  let topo = Topology.clos ~hosts:4 ~tors:2 ~spines:4 () in
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed) topo in
  let shares = Array.make 4 0 in
  for f = 1 to flows do
    let names =
      Fabric.path_names fab ~src_host:0 ~dst_host:3
        (Packet.make ~id:f ~src:f ~dst:(f * 7) ~size:1500 ~protocol:Packet.Tcp ~sent_at:0.0 ())
    in
    List.iter
      (fun n ->
        for s = 0 to 3 do
          if n = Printf.sprintf "tor0->spine%d" s then shares.(s) <- shares.(s) + 1
        done)
      names
  done;
  let mx = Array.fold_left max 0 shares and mn = Array.fold_left min max_int shares in
  (shares, float_of_int mx /. float_of_int (max 1 mn))

(* --- cross-host experiment determinism -------------------------------- *)

let xhost_bench () =
  let run () =
    Bmhive.Experiments.(run { default_ctx with quick = true; seed } [ "xhost_rr" ])
  in
  let r1, wall1 = time run in
  let r2, wall2 = time run in
  (wall1, wall2, r1 = r2)

(* --- driver ----------------------------------------------------------- *)

let progress fmt = progress args fmt

let () =
  let bursts = if quick then 100_000 else 1_000_000 in
  progress "forward: %d bursts over 8 hosts / 4 tors / 2 spines" bursts;
  let eps, bps, events, delivered, dropped, fwd_s, fwd_wpe = forward_bench ~bursts in
  let flows = 10_000 in
  progress "ecmp: %d flows over 4 spines" flows;
  let shares, imbalance = ecmp_bench ~flows in
  progress "xhost_rr twice (quick)";
  let wall1, wall2, identical = xhost_bench () in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"seed\": %d,\n" seed;
  p "  \"quick\": %b,\n" quick;
  p "  \"forward\": {\n";
  p "    \"bursts\": %d,\n" bursts;
  p "    \"events\": %d,\n" events;
  p "    \"delivered\": %d,\n" delivered;
  p "    \"dropped\": %d,\n" dropped;
  p "    \"wall_s\": %.4f,\n" fwd_s;
  p "    \"events_per_sec\": %.0f,\n" eps;
  p "    \"bursts_per_sec\": %.0f,\n" bps;
  p "    \"words_per_event\": %.3f\n" fwd_wpe;
  p "  },\n";
  p "  \"ecmp\": {\n";
  p "    \"flows\": %d,\n" flows;
  p "    \"spine_shares\": [%s],\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int shares)));
  p "    \"max_over_min\": %.3f\n" imbalance;
  p "  },\n";
  p "  \"xhost_rr\": {\n";
  p "    \"wall_s_run1\": %.4f,\n" wall1;
  p "    \"wall_s_run2\": %.4f,\n" wall2;
  p "    \"outcomes_identical\": %b\n" identical;
  p "  }\n";
  p "}\n";
  let oc = open_out out_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf
    "fabric bench: %.0f events/s forwarding at %.2f alloc words/event (%d dropped of %d); ecmp \
     max/min %.2f; xhost_rr deterministic: %b\n"
    eps fwd_wpe dropped delivered imbalance identical;
  Printf.printf "written: %s\n" out_file
