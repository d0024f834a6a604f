(* Tests for the datacenter fabric: topology validation, ECMP path
   selection, idle-path latency arithmetic, drop-tail accounting, and
   the three headline properties — run-to-run determinism, per-link
   conservation, and the on-host fast path staying byte-identical when
   a topology is attached. *)

open Bm_engine
open Bm_virtio
module Fabric = Bm_fabric.Fabric
module Topology = Bm_fabric.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_pkt ?(count = 1) ?(size = 1500) ?(protocol = Packet.Udp) ?(tag = 0) ~src ~dst id =
  Packet.make ~id ~src ~dst ~size ~count ~protocol ~tag ~sent_at:0.0 ()

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "hosts < tors" true (raises (fun () -> Topology.clos ~hosts:2 ~tors:3 ~spines:1 ()));
  check_bool "no spine behind 2 tors" true
    (raises (fun () -> Topology.clos ~hosts:4 ~tors:2 ~spines:0 ()));
  check_bool "zero hosts" true (raises (fun () -> Topology.clos ~hosts:0 ~tors:0 ~spines:0 ()));
  let t = Topology.two_host () in
  check_int "two_host hosts" 2 t.Topology.hosts;
  check_int "two_host tors" 1 t.Topology.tors;
  check_int "two_host spines" 0 t.Topology.spines

let test_topology_tor_blocks () =
  let t = Topology.clos ~hosts:6 ~tors:3 ~spines:1 () in
  Alcotest.(check (list int))
    "contiguous blocks" [ 0; 0; 1; 1; 2; 2 ]
    (List.init 6 (fun h -> Topology.tor_of t ~host:h))

let test_topology_spec_roundtrip () =
  (match Topology.parse_spec "two_host" with
  | Ok t -> check_int "preset hosts" 2 t.Topology.hosts
  | Error e -> Alcotest.fail e);
  (match Topology.parse_spec "hosts=4,tors=2,spines=2,spine_gbit=10,queue=32" with
  | Ok t ->
    check_int "hosts" 4 t.Topology.hosts;
    check_int "queue" 32 t.Topology.spine_link.Topology.queue_capacity;
    (* render must parse back to the same topology *)
    (match Topology.parse_spec (Topology.render t) with
    | Ok t' -> check_bool "render/parse roundtrip" true (t = t')
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  check_bool "bad key rejected" true
    (match Topology.parse_spec "hosts=4,frobs=2" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Fabric mechanics *)

let test_attach_order_and_exhaustion () =
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed:1) (Topology.two_host ()) in
  check_int "first port" 0 (Fabric.attach fab);
  check_int "second port" 1 (Fabric.attach fab);
  match Fabric.attach fab with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attach beyond the topology accepted"

let test_same_host_is_free () =
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed:1) (Topology.two_host ()) in
  let at = ref nan in
  Sim.spawn sim (fun () ->
      Sim.delay 500.0;
      Fabric.send fab ~src_host:0 ~dst_host:0
        ~deliver:(fun _ -> at := Sim.now sim)
        (mk_pkt ~src:1 ~dst:2 1));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "delivered at send time" 500.0 !at;
  check_int "no wire traffic" 0 (Fabric.injected fab)

(* An idle fabric delivers exactly at the analytic path latency — the
   store-and-forward pipeline degenerates to a sum of per-link
   serialization + propagation when nothing queues. *)
let idle_latency topo ~src_host ~dst_host =
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed:3) topo in
  let at = ref nan in
  Sim.spawn sim (fun () ->
      Fabric.send fab ~src_host ~dst_host
        ~deliver:(fun _ -> at := Sim.now sim)
        (mk_pkt ~src:10 ~dst:20 1));
  Sim.run sim;
  (!at, Fabric.path_latency_ns fab ~src_host ~dst_host ~bytes:1500)

let test_idle_latency_matches_analytic () =
  let measured, expected = idle_latency (Topology.two_host ()) ~src_host:0 ~dst_host:1 in
  Alcotest.(check (float 1e-6)) "same-tor path" expected measured;
  let measured, expected =
    idle_latency (Topology.clos ~hosts:4 ~tors:2 ~spines:2 ()) ~src_host:0 ~dst_host:3
  in
  Alcotest.(check (float 1e-6)) "cross-tor path" expected measured

let test_ecmp_stable_and_spread () =
  let topo = Topology.clos ~hosts:4 ~tors:2 ~spines:4 () in
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed:42) topo in
  let flow = mk_pkt ~protocol:Packet.Tcp ~src:7 ~dst:9 1 in
  let p0 = Fabric.path_names fab ~src_host:0 ~dst_host:3 flow in
  check_int "cross-tor path has 4 hops" 4 (List.length p0);
  for _ = 1 to 10 do
    check_bool "flow keeps its path" true
      (Fabric.path_names fab ~src_host:0 ~dst_host:3 flow = p0)
  done;
  (* same seed => same salt => same choice in a fresh fabric *)
  let fab' = Fabric.create (Sim.create ()) (Rng.create ~seed:42) topo in
  check_bool "seed reproduces the path" true
    (Fabric.path_names fab' ~src_host:0 ~dst_host:3 flow = p0);
  (* distinct flows spread over every spine *)
  let used = Array.make 4 false in
  for f = 1 to 256 do
    let names =
      Fabric.path_names fab ~src_host:0 ~dst_host:3
        (mk_pkt ~protocol:Packet.Tcp ~src:f ~dst:(f * 13) ~tag:(f mod 5) f)
    in
    List.iter
      (fun n ->
        for s = 0 to 3 do
          if n = Printf.sprintf "tor0->spine%d" s then used.(s) <- true
        done)
      names
  done;
  check_bool "all spines used" true (Array.for_all Fun.id used);
  (* same-tor traffic never climbs to the spine *)
  check_int "same-tor path has 2 hops" 2
    (List.length (Fabric.path_names fab ~src_host:0 ~dst_host:1 flow))

let test_drop_tail_accounting () =
  let sim = Sim.create () in
  let topo = Topology.clos ~hosts:2 ~tors:1 ~spines:0 ~queue_capacity:2 () in
  let fab = Fabric.create sim (Rng.create ~seed:5) topo in
  let delivered = ref 0 and dropped = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 1 to 50 do
        Fabric.send fab ~src_host:0 ~dst_host:1
          ~on_drop:(fun _ -> incr dropped)
          ~deliver:(fun _ -> incr delivered)
          (mk_pkt ~src:1 ~dst:2 i)
      done);
  Sim.run sim;
  check_bool "queue of 2 sheds a 50-burst blast" true (!dropped > 0);
  check_int "on_drop fires once per loss" !dropped (Fabric.dropped fab);
  check_int "deliver fires for the rest" !delivered (Fabric.delivered fab);
  check_int "conservation" (Fabric.injected fab) (Fabric.delivered fab + Fabric.dropped fab)

(* A link keeps no burst that left it: its wire field and the FIFO of
   propagating bursts are nulled as bursts finish serializing and
   arrive, and the queue's ring and callback slot as they are taken. *)
let test_links_release_bursts () =
  let sim = Sim.create () in
  let fab =
    Fabric.create sim (Rng.create ~seed:9)
      (Topology.clos ~hosts:2 ~tors:1 ~spines:0 ~host_latency_ns:5_000.0 ())
  in
  let n = 16 in
  let weak = Weak.create n in
  let delivered = ref 0 and in_flight_at_once = ref 0 in
  let send i =
    let pkt = mk_pkt ~size:(64 + (64 * i)) ~src:1 ~dst:2 i in
    Weak.set weak i (Some pkt);
    Fabric.send fab ~src_host:0 ~dst_host:1 ~deliver:(fun _ -> incr delivered) pkt
  in
  for i = 0 to n - 1 do
    Sim.schedule sim ~delay:(float_of_int (100 * i)) (fun () -> send i)
  done;
  Sim.schedule sim ~delay:4_000.0 (fun () -> in_flight_at_once := n - !delivered);
  Sim.run sim;
  check_int "every burst sent before the first arrived" n !in_flight_at_once;
  check_int "all delivered" n !delivered;
  Gc.full_major ();
  Alcotest.(check (list int)) "no burst retained" []
    (List.filter (Weak.check weak) (List.init n Fun.id));
  ignore (Sys.opaque_identity fab)

let test_fabric_metrics_and_trace () =
  let sim = Sim.create () in
  let metrics = Metrics.create () in
  let trace = Trace.create () in
  let obs = Obs.of_sim ~trace ~metrics sim in
  let fab =
    Fabric.create ~obs sim (Rng.create ~seed:5)
      (Topology.clos ~hosts:2 ~tors:1 ~spines:0 ~queue_capacity:2 ())
  in
  Sim.spawn sim (fun () ->
      for i = 1 to 50 do
        Fabric.send fab ~src_host:0 ~dst_host:1 ~deliver:(fun _ -> ()) (mk_pkt ~src:1 ~dst:2 i)
      done);
  Sim.run sim;
  check_int "fabric.injected counter" (Fabric.injected fab)
    (int_of_float (Metrics.counter_value metrics "fabric.injected"));
  check_int "fabric.delivered counter" (Fabric.delivered fab)
    (int_of_float (Metrics.counter_value metrics "fabric.delivered"));
  check_int "fabric.dropped counter" (Fabric.dropped fab)
    (int_of_float (Metrics.counter_value metrics "fabric.dropped"));
  check_bool "per-link drop counter" true
    (Metrics.counter_value metrics "fabric.link.host0->tor0.dropped" > 0.0);
  check_bool "drop instants traced" true
    (Trace.count trace ~track:"fabric.host0->tor0" ~name:"drop" () > 0)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Shared generator: a topology shape plus a traffic schedule, split
   round-robin over three sender fibers so the agenda interleaves. *)
let topo_arb =
  QCheck.(quad (int_range 2 6) (int_range 1 3) (int_range 1 3) (int_range 1 16))

let sends_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 60) (quad small_nat small_nat (int_bound 23) (int_bound 10)))

let build_topo (hosts, tors, spines, queue) =
  Topology.clos ~hosts ~tors:(min tors hosts) ~spines ~queue_capacity:queue ()

let lanes n sends =
  let a = Array.make n [] in
  List.iteri (fun i x -> a.(i mod n) <- (i, x) :: a.(i mod n)) sends;
  List.filter (fun l -> l <> []) (Array.to_list (Array.map List.rev a))

(* Drive [sends] through a fresh fabric; returns the fabric, the final
   simulation time, and the full (kind, id, time) event log. *)
let run_traffic ~seed topo sends =
  let sim = Sim.create () in
  let fab = Fabric.create sim (Rng.create ~seed) topo in
  let hosts = topo.Topology.hosts in
  let log = ref [] in
  let record kind id = log := (kind, id, Sim.now sim) :: !log in
  List.iteri
    (fun lane sends ->
      Sim.spawn sim (fun () ->
          List.iter
            (fun (i, (s, d, sz, gap)) ->
              Fabric.send fab ~src_host:(s mod hosts) ~dst_host:(d mod hosts)
                ~on_drop:(fun p -> record `Drop p.Packet.id)
                ~deliver:(fun p -> record `Del p.Packet.id)
                (mk_pkt
                   ~size:(64 + (64 * sz))
                   ~src:(1000 + (lane * 100) + s)
                   ~dst:(2000 + d)
                   ((lane * 1000) + i));
              Sim.delay (float_of_int gap *. 40.0))
            sends))
    (lanes 3 sends);
  Sim.run sim;
  (fab, Sim.now sim, List.rev !log)

(* (a) Same seed + same topology + same offered traffic => the entire
   event log — ids, drop/deliver outcomes, and timestamps — repeats. *)
let prop_determinism =
  QCheck.Test.make ~name:"same seed + topology => identical delivery order" ~count:50
    (QCheck.pair topo_arb sends_arb)
    (fun (shape, sends) ->
      let topo = build_topo shape in
      let _, t1, l1 = run_traffic ~seed:11 topo sends in
      let _, t2, l2 = run_traffic ~seed:11 topo sends in
      t1 = t2 && l1 = l2)

(* (b) Every wire packet is accounted for: fabric-wide
   injected = delivered + dropped, per link
   sent = delivered + dropped + queued with empty queues at
   quiescence, and the per-link drop counts sum to the fabric total. *)
let prop_conservation =
  QCheck.Test.make ~name:"injected = delivered + dropped, per link and fabric-wide" ~count:50
    (QCheck.pair topo_arb sends_arb)
    (fun (shape, sends) ->
      let topo = build_topo shape in
      let fab, now, log = run_traffic ~seed:7 topo sends in
      let hosts = topo.Topology.hosts in
      let cross =
        List.length
          (List.filter (fun (s, d, _, _) -> s mod hosts <> d mod hosts) sends)
      in
      let dels = List.length (List.filter (fun (k, _, _) -> k = `Del) log) in
      let drops = List.length (List.filter (fun (k, _, _) -> k = `Drop) log) in
      let stats = Fabric.link_stats fab ~now in
      Fabric.injected fab = cross
      && Fabric.injected fab = Fabric.delivered fab + Fabric.dropped fab
      && Fabric.delivered fab + (List.length sends - cross) = dels
      && Fabric.dropped fab = drops
      && Fabric.dropped fab
         = List.fold_left (fun acc s -> acc + s.Fabric.dropped_pkts) 0 stats
      && List.for_all
           (fun s ->
             s.Fabric.queued = 0
             && s.Fabric.sent_bursts
                = s.Fabric.delivered_bursts + s.Fabric.dropped_bursts + s.Fabric.queued)
           stats)

(* (c) Attaching a topology must not perturb the on-host fast path:
   traffic between endpoints of one vswitch produces the identical
   (port, id, time) arrival log with and without a fabric behind it. *)
let onhost_log ~with_net sends =
  let sim = Sim.create () in
  let net =
    if with_net then
      Some (Fabric.create sim (Rng.create ~seed:99) (Topology.two_host ()))
    else None
  in
  let fabric = Bm_cloud.Vswitch.create_fabric ?net () in
  let cores = Bm_hw.Cores.create sim ~spec:Bm_hw.Cpu_spec.base_server_e5 () in
  let vs = Bm_cloud.Vswitch.create sim ~fabric ~cores () in
  let log = ref [] in
  let a = Bm_cloud.Vswitch.register vs ~deliver:(fun p -> log := (0, p.Packet.id, Sim.now sim) :: !log) in
  let b = Bm_cloud.Vswitch.register vs ~deliver:(fun p -> log := (1, p.Packet.id, Sim.now sim) :: !log) in
  Sim.spawn sim (fun () ->
      List.iteri
        (fun i (flip, sz, gap) ->
          let src, dst = if flip then (b, a) else (a, b) in
          Bm_cloud.Vswitch.send vs (mk_pkt ~size:(64 + (64 * sz)) ~src ~dst i);
          Sim.delay (float_of_int gap *. 25.0))
        sends);
  Sim.run sim;
  List.rev !log

let prop_onhost_unchanged =
  QCheck.Test.make ~name:"on-host traffic byte-identical with a fabric attached" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 50) (triple bool (int_bound 23) (int_bound 10)))
    (fun sends -> onhost_log ~with_net:false sends = onhost_log ~with_net:true sends)

(* Same claim one layer up: a full guest-to-guest workload on one
   server measures identically whether or not the testbed models a
   fabric behind it (the fabric has its own RNG stream and the co-
   resident path never touches a wire). *)
let test_testbed_onhost_unchanged () =
  let rr topology =
    let tb = Bm_workload.Testbed.make ~seed:77 ?topology () in
    let _, g1, g2 = Bm_workload.Testbed.bm_pair tb in
    Bm_workload.Netperf.tcp_rr tb.Bm_workload.Testbed.sim ~src:g1 ~dst:g2 ~count:200 ()
  in
  check_bool "bm_pair tcp_rr identical with a topology attached" true
    (rr None = rr (Some (Topology.two_host ())))

(* ------------------------------------------------------------------ *)
(* Golden trajectory *)

(* A contended 8-host leaf-spine (queues of 4, spine links slower than
   host links, half the traffic to host 0) under four paced senders,
   with one spine uplink failing mid-run and coming back: every burst's
   fate and time, the engine's event counts, each link's stats and its
   depth metric, printed with %h so any moved event shows. Regenerated
   by printing [golden_fabric ()] — update only on an intentional
   fabric-model change. *)
let golden_fabric () =
  let sim = Sim.create () in
  let metrics = Metrics.create () in
  let obs = Obs.of_sim ~metrics sim in
  let rng = Rng.create ~seed:2020 in
  let topo =
    Topology.clos ~hosts:8 ~tors:4 ~spines:2 ~host_gbit_s:25.0 ~spine_gbit_s:10.0
      ~queue_capacity:4 ()
  in
  let fab = Fabric.create ~obs sim (Rng.split rng) topo in
  let out = Buffer.create 4096 in
  Buffer.add_string out "bursts";
  let logged = ref 0 in
  let log tag (p : Packet.t) =
    Printf.bprintf out "%s%d%s%h" (if !logged mod 6 = 0 then "\n " else " ") p.Packet.id tag
      (Sim.now sim);
    incr logged
  in
  Sim.schedule sim ~delay:20_000.0 (fun () -> Fabric.fail_link fab ~name:"tor1->spine0");
  Sim.schedule sim ~delay:60_000.0 (fun () -> Fabric.repair_link fab ~name:"tor1->spine0");
  for s = 0 to 3 do
    let rng = Rng.split rng in
    Sim.spawn sim (fun () ->
        for i = 1 to 48 do
          let src_host = 1 + Rng.int rng 7 in
          let dst_host = if Rng.bool rng then 0 else (src_host + 1 + Rng.int rng 6) mod 8 in
          let count = 1 + Rng.int rng 3 in
          Fabric.send fab ~src_host ~dst_host ~on_drop:(log "!") ~deliver:(log "@")
            (mk_pkt ~count
               ~size:(64 * count * (1 + Rng.int rng 23))
               ~tag:(Rng.int rng 4) ~src:(100 * s) ~dst:(100 * s + dst_host)
               ((1000 * s) + i));
          Sim.delay (Rng.float rng 2_000.0)
        done)
  done;
  Sim.run sim;
  let st = Sim.stats sim in
  Printf.bprintf out "\nend %h injected %d delivered %d dropped %d events %d lane %d heap %d\n"
    (Sim.now sim) (Fabric.injected fab) (Fabric.delivered fab) (Fabric.dropped fab)
    st.Sim.executed st.Sim.lane st.Sim.heap;
  List.iter
    (fun (l : Fabric.link_stat) ->
      Printf.bprintf out "%s util %h p99 %h bursts %d/%d/%d pkts %d/%d queued %d" l.name
        l.utilization l.depth_p99 l.sent_bursts l.delivered_bursts l.dropped_bursts
        l.delivered_pkts l.dropped_pkts l.queued;
      (match Metrics.histogram metrics ("fabric.link." ^ l.name ^ ".depth") with
      | Some h ->
        Printf.bprintf out " depth n %d mean %h p50 %h p99.9 %h max %h"
          (Stats.Histogram.count h) (Stats.Histogram.mean h)
          (Stats.Histogram.percentile h 50.0) (Stats.Histogram.percentile h 99.9)
          (Stats.Histogram.max h)
      | None -> ());
      Buffer.add_char out '\n')
    (Fabric.link_stats fab ~now:(Sim.now sim));
  Buffer.contents out

let test_golden_fabric () =
  Alcotest.(check string) "golden fabric trajectory" Golden_fabric.seed2020 (golden_fabric ())

(* Links whose propagation latency dwarfs serialization (6 µs host and
   15 µs spine hops against bursts of at most ~1.2 µs on the wire), fed
   faster than one latency: many bursts propagate on one link at once,
   and a spine downlink fails and comes back while some are in flight.
   Burst fates and times, event counts and per-link stats, printed with
   %h. Regenerated by printing [golden_inflight ()] — update only on an
   intentional fabric-model change. *)
let inflight_topo () =
  Topology.clos ~hosts:6 ~tors:2 ~spines:3 ~host_gbit_s:100.0 ~spine_gbit_s:10.0
    ~host_latency_ns:6_000.0 ~spine_latency_ns:15_000.0 ~queue_capacity:2 ()

let run_inflight () =
  let sim = Sim.create () in
  let metrics = Metrics.create () in
  let obs = Obs.of_sim ~metrics sim in
  let rng = Rng.create ~seed:2021 in
  let fab = Fabric.create ~obs sim (Rng.split rng) (inflight_topo ()) in
  let out = Buffer.create 4096 in
  Buffer.add_string out "bursts";
  let logged = ref 0 in
  let deliveries = ref [] in
  let log tag (p : Packet.t) =
    Printf.bprintf out "%s%d%s%h" (if !logged mod 6 = 0 then "\n " else " ") p.Packet.id tag
      (Sim.now sim);
    incr logged
  in
  let delivered (p : Packet.t) =
    deliveries := (p.Packet.dst mod 100, Sim.now sim) :: !deliveries;
    log "@" p
  in
  Sim.schedule sim ~delay:22_000.0 (fun () -> Fabric.fail_link fab ~name:"spine1->tor0");
  Sim.schedule sim ~delay:34_000.0 (fun () -> Fabric.repair_link fab ~name:"spine1->tor0");
  for s = 0 to 2 do
    let rng = Rng.split rng in
    Sim.spawn sim (fun () ->
        for i = 1 to 40 do
          let src_host = 1 + Rng.int rng 5 in
          let dst_host = if Rng.bool rng then 0 else (src_host + 1 + Rng.int rng 4) mod 6 in
          let count = 1 + Rng.int rng 3 in
          Fabric.send fab ~src_host ~dst_host ~on_drop:(log "!") ~deliver:delivered
            (mk_pkt ~count
               ~size:(64 * count * (1 + Rng.int rng 8))
               ~protocol:(if Rng.bool rng then Packet.Tcp else Packet.Udp)
               ~tag:(Rng.int rng 8) ~src:(100 * s) ~dst:(100 * s + dst_host)
               ((1000 * s) + i));
          Sim.delay (Rng.float rng 600.0)
        done)
  done;
  Sim.run sim;
  let st = Sim.stats sim in
  Printf.bprintf out "\nend %h injected %d delivered %d dropped %d events %d lane %d heap %d\n"
    (Sim.now sim) (Fabric.injected fab) (Fabric.delivered fab) (Fabric.dropped fab)
    st.Sim.executed st.Sim.lane st.Sim.heap;
  List.iter
    (fun (l : Fabric.link_stat) ->
      Printf.bprintf out "%s util %h p99 %h bursts %d/%d/%d pkts %d/%d queued %d\n" l.name
        l.utilization l.depth_p99 l.sent_bursts l.delivered_bursts l.dropped_bursts
        l.delivered_pkts l.dropped_pkts l.queued)
    (Fabric.link_stats fab ~now:(Sim.now sim));
  (Buffer.contents out, !deliveries)

let golden_inflight () = fst (run_inflight ())

let test_golden_inflight () =
  let trajectory, deliveries = run_inflight () in
  (* Two arrivals at one host less than a host-link latency apart
     propagated on its downlink at the same time. *)
  let overlapping =
    List.exists
      (fun (h, t) -> List.exists (fun (h', t') -> h = h' && t < t' && t' -. t < 6_000.0) deliveries)
      deliveries
  in
  check_bool "bursts overlap on one link" true overlapping;
  Alcotest.(check string) "golden in-flight trajectory" Golden_inflight.seed2021 trajectory

(* The spine each of a fixed set of random flows hashes to, for four
   (salt, spine count) pairs: src and dst span the whole int range,
   negatives included. Pins the ECMP arithmetic bit for bit — any change
   to the hash moves flows between spines. Regenerated by printing
   [ecmp_pin ()]. *)
let ecmp_pin () =
  let out = Buffer.create 512 in
  List.iter
    (fun (seed, spines) ->
      let topo = Topology.clos ~hosts:2 ~tors:2 ~spines () in
      let fab = Fabric.create (Sim.create ()) (Rng.create ~seed) topo in
      let rng = Rng.create ~seed:(seed + 1) in
      Printf.bprintf out "seed %d spines %d:" seed spines;
      for i = 1 to 64 do
        let src = Int64.to_int (Rng.bits64 rng) in
        let dst = if Rng.bool rng then Rng.int rng 4096 else Int64.to_int (Rng.bits64 rng) in
        let protocol = [| Packet.Udp; Packet.Tcp; Packet.Icmp |].(Rng.int rng 3) in
        let pkt = mk_pkt ~protocol ~tag:(Rng.int rng 1000 - 500) ~src ~dst i in
        match Fabric.path_names fab ~src_host:0 ~dst_host:1 pkt with
        | [ _; up; _; _ ] -> Buffer.add_char out up.[String.length up - 1]
        | _ -> Alcotest.fail "cross-tor path is not 4 hops"
      done;
      Buffer.add_char out '\n')
    [ (1, 2); (7, 3); (42, 4); (2020, 7) ];
  Buffer.contents out

let test_ecmp_pin () = Alcotest.(check string) "ecmp spine choices" Golden_inflight.ecmp (ecmp_pin ())

let suites =
  [
    ( "fabric.topology",
      [
        Alcotest.test_case "clos validation" `Quick test_topology_validation;
        Alcotest.test_case "tor blocks" `Quick test_topology_tor_blocks;
        Alcotest.test_case "spec roundtrip" `Quick test_topology_spec_roundtrip;
      ] );
    ( "fabric.links",
      [
        Alcotest.test_case "attach order + exhaustion" `Quick test_attach_order_and_exhaustion;
        Alcotest.test_case "same-host is free" `Quick test_same_host_is_free;
        Alcotest.test_case "idle latency analytic" `Quick test_idle_latency_matches_analytic;
        Alcotest.test_case "ecmp stable + spread" `Quick test_ecmp_stable_and_spread;
        Alcotest.test_case "drop-tail accounting" `Quick test_drop_tail_accounting;
        Alcotest.test_case "links release bursts" `Quick test_links_release_bursts;
        Alcotest.test_case "metrics + trace" `Quick test_fabric_metrics_and_trace;
        Alcotest.test_case "testbed on-host unchanged" `Quick test_testbed_onhost_unchanged;
        Alcotest.test_case "golden trajectory" `Quick test_golden_fabric;
        Alcotest.test_case "golden in-flight trajectory" `Quick test_golden_inflight;
        Alcotest.test_case "ecmp spine pin" `Quick test_ecmp_pin;
      ] );
    ( "fabric.prop",
      List.map QCheck_alcotest.to_alcotest
        [ prop_determinism; prop_conservation; prop_onhost_unchanged ] );
  ]
