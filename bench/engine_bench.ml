(* Engine performance benchmark: measures the host-side cost of the
   simulator itself — not simulated latencies — and writes the numbers
   to a JSON file (BENCH_engine.json at the repo root is the committed
   baseline).

   Usage:
     engine_bench.exe [--quick] [--seed N] [--out FILE]

   Five sections:
     hot_lane   events/sec of zero-delay self-rescheduling callbacks
                (FIFO hot lane) vs the same chains with a 1 ns delay
                (binary-heap lane)
     alloc      GC-allocated words per event on both lanes (the
                zero-alloc hot-path gate CI enforces)
     datapath   the bm guest datapath's host cost: words per event and
                words promoted out of the minor heap per request, for
                UDP ping-pongs between a co-resident pair and for 4 KiB
                blk reads and writes (a second CI gate); the same size
                with or without --quick
     sweep      a 4-cell quick experiment sweep with --jobs 1 vs --jobs
                at the recommended domain count (at least 2, so the
                structural-equality check of the outcomes compares real
                domains); the wall-clock comparison is skipped (and
                marked so in the JSON) on single-core hosts, where it
                would measure domain overhead rather than speedup
     cells      per-cell wall seconds at jobs=1

   None of this changes a simulated result. *)

open Bm_engine
open Bench_common

let args = parse_args ~name:"engine_bench" ~default_out:"BENCH_engine.json"
let { quick; seed; out_file; _ } = args

(* --- hot lane vs heap ------------------------------------------------ *)

(* [chains] outstanding callbacks, each rescheduling itself with the
   given delay until the shared budget drains. delay=0 keeps every event
   in the FIFO hot lane; delay=1 ns forces every event through the
   binary heap at ~10k occupancy. *)
let lane_events_per_sec ~delay ~chains ~events =
  let sim = Sim.create () in
  let remaining = ref events in
  let rec cb () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.schedule sim ~delay cb
    end
  in
  for _ = 1 to chains do
    Sim.schedule sim ~delay cb
  done;
  (* The allocation probe brackets [Sim.run] alone: setup above has
     already sized the agenda arrays, so steady-state scheduling inside
     the run should allocate nothing. *)
  let a0 = allocated_words () in
  let (), dt = time (fun () -> Sim.run sim) in
  let words = allocated_words () -. a0 in
  ( float_of_int (Sim.events_executed sim) /. dt,
    Sim.events_executed sim,
    dt,
    words /. float_of_int (Sim.events_executed sim) )

(* --- datapath ---------------------------------------------------------- *)

module Testbed = Bm_workload.Testbed
module Instance = Bm_guest.Instance
module Packet = Bm_virtio.Packet

(* [start] puts a load on a fresh testbed and returns its count of
   completed requests. The brackets hold the run alone: allocated words
   per event, and words promoted out of the minor heap per completed
   request, each side of the run after a minor collection. Ring state
   that outlives a minor collection (a request in flight, a posted rx
   buffer) is what the promoted words count. *)
let datapath_cost start =
  let tb = Testbed.make ~seed () in
  let completed = start tb in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let a0 = allocated_words () in
  Testbed.run tb;
  let words = allocated_words () -. a0 in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
  let events = Sim.events_executed tb.Testbed.sim in
  (!completed, events, words /. float_of_int events, promoted /. float_of_int !completed)

(* [streams] UDP ping-pongs of 64 B between a co-resident bm pair, [n]
   round trips in all: each pong sends the next ping. *)
let udp_ping_pong ~streams ~n tb =
  let _, a, b = Testbed.bm_pair tb in
  let udp id ~src ~dst =
    Packet.make ~id ~src:src.Instance.endpoint ~dst:dst.Instance.endpoint ~size:64
      ~protocol:Packet.Udp ~sent_at:(Sim.clock ()) ()
  in
  let sent = ref 0 and pongs = ref 0 in
  let ping () =
    if !sent < n then begin
      incr sent;
      ignore (a.Instance.send (udp !sent ~src:a ~dst:b) : bool)
    end
  in
  b.Instance.set_rx_handler (fun p -> ignore (b.Instance.send (udp p.Packet.id ~src:b ~dst:a) : bool));
  a.Instance.set_rx_handler (fun _ ->
      incr pongs;
      ping ());
  for _ = 1 to streams do
    Sim.spawn tb.Testbed.sim ping
  done;
  pongs

(* [workers] fibers on one bm guest, each issuing 4 KiB I/Os back to
   back, reads and writes alternating, [n] in all. *)
let blk_rw ~workers ~n tb =
  let _, g = Testbed.bm_guest tb in
  let done_ = ref 0 in
  for w = 1 to workers do
    Sim.spawn tb.Testbed.sim (fun () ->
        for i = 1 to n / workers do
          ignore (g.Instance.blk ~op:(if (i + w) mod 2 = 0 then `Read else `Write) ~bytes_:4096 : float);
          incr done_
        done)
  done;
  done_

(* --- parallel sweep --------------------------------------------------- *)

let sweep_ids = [ "fig9"; "fig10"; "fig11"; "sec6" ]

let quick_ctx () = { Bmhive.Experiments.default_ctx with quick = true; seed }
let sweep ~jobs = time (fun () -> Bmhive.Experiments.run { (quick_ctx ()) with jobs } sweep_ids)

let cell_seconds () =
  List.map
    (fun id ->
      let _, s = time (fun () -> Bmhive.Experiments.run (quick_ctx ()) [ id ]) in
      (id, s))
    sweep_ids

(* --- driver ----------------------------------------------------------- *)

let progress fmt = progress args fmt

let () =
  let chains = 10_000 in
  let events = if quick then 200_000 else 2_000_000 in
  let rec_domains = Domain.recommended_domain_count () in
  let multicore = rec_domains >= 2 in
  progress "hot lane: %d chains, %d events" chains events;
  let hot_eps, hot_events, hot_s, hot_wpe = lane_events_per_sec ~delay:0.0 ~chains ~events in
  progress "heap lane";
  let heap_eps, heap_events, heap_s, heap_wpe = lane_events_per_sec ~delay:1.0 ~chains ~events in
  progress "datapath: UDP ping-pong";
  let round_trips, udp_events, udp_wpe, udp_ppr =
    datapath_cost (udp_ping_pong ~streams:8 ~n:20_000)
  in
  progress "datapath: 4 KiB blk I/O";
  let ios, blk_events, blk_wpe, blk_ppr = datapath_cost (blk_rw ~workers:8 ~n:20_000) in
  let jobs = max 2 rec_domains in
  progress "sweep --jobs 1";
  let r1, sweep1_s = sweep ~jobs:1 in
  progress "sweep --jobs %d" jobs;
  let rn, sweepn_s = sweep ~jobs in
  let identical = r1 = rn in
  progress "per-cell timings";
  let cells = cell_seconds () in
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"seed\": %d,\n" seed;
  p "  \"quick\": %b,\n" quick;
  p "  \"note\": \"wall-clock ratios depend on the host's cores (recommended_domains) and are skipped on one; only the determinism (outcomes_identical) and alloc gates are load-bearing\",\n";
  p "  \"recommended_domains\": %d,\n" rec_domains;
  p "  \"hot_lane\": {\n";
  p "    \"chains\": %d,\n" chains;
  p "    \"zero_delay\": { \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n"
    hot_events hot_s hot_eps;
  p "    \"heap\": { \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n" heap_events
    heap_s heap_eps;
  p "    \"speedup\": %.2f\n" (hot_eps /. heap_eps);
  p "  },\n";
  p "  \"alloc\": {\n";
  p "    \"hot_lane_words_per_event\": %.3f,\n" hot_wpe;
  p "    \"heap_lane_words_per_event\": %.3f\n" heap_wpe;
  p "  },\n";
  p "  \"datapath\": {\n";
  p "    \"udp_ping_pong\": { \"round_trips\": %d, \"events\": %d, \"words_per_event\": %.3f, \"promoted_words_per_request\": %.3f },\n"
    round_trips udp_events udp_wpe udp_ppr;
  p "    \"blk_4k_rw\": { \"ios\": %d, \"events\": %d, \"words_per_event\": %.3f, \"promoted_words_per_request\": %.3f }\n"
    ios blk_events blk_wpe blk_ppr;
  p "  },\n";
  p "  \"sweep\": {\n";
  p "    \"ids\": [%s],\n" (String.concat ", " (List.map (Printf.sprintf "%S") sweep_ids));
  p "    \"jobs\": %d,\n" jobs;
  p "    \"jobs_1_wall_s\": %.4f,\n" sweep1_s;
  p "    \"jobs_n_wall_s\": %.4f,\n" sweepn_s;
  (* On a single-core host a parallel wall-clock "speedup" only measures
     domain overhead; publish the skip, not a misleading ratio. The
     outcome-identity check above still ran with real domains. *)
  if multicore then p "    \"wall_speedup\": %.2f,\n" (sweep1_s /. sweepn_s)
  else
    p "    \"wall_speedup_skipped\": \"single-core host (recommended_domains = 1)\",\n";
  p "    \"outcomes_identical\": %b\n" identical;
  p "  },\n";
  p "  \"cells\": {\n";
  List.iteri
    (fun i (id, s) ->
      p "    %S: %.4f%s\n" id s (if i = List.length cells - 1 then "" else ","))
    cells;
  p "  }\n";
  p "}\n";
  let oc = open_out out_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "engine bench: hot lane %.2fx heap; %.2f/%.2f alloc words/event \
                 (hot/heap); datapath %.2f/%.2f words/event, %.2f/%.2f promoted/request \
                 (udp/blk); sweep identical: %b (%d domain(s) recommended%s)\n"
    (hot_eps /. heap_eps) hot_wpe heap_wpe udp_wpe blk_wpe udp_ppr blk_ppr identical rec_domains
    (if multicore then "" else "; wall speedups skipped");
  Printf.printf "written: %s\n" out_file
