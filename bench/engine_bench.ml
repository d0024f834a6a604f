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
     sweep      a 4-cell quick experiment sweep with --jobs 1 vs
                --jobs 4, including a structural-equality check of the
                outcomes; the wall-clock comparison is skipped (and
                marked so in the JSON) on single-core hosts, where it
                would measure domain overhead rather than speedup
     shards     the conservative sharded scheduler (Bm_engine.Shard) on
                a synthetic host-partitioned traffic model: wall-clock
                at shards=1 vs shards=4 plus a byte-identity check
                against the plain sequential engine
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

(* --- sharded scheduler ------------------------------------------------ *)

(* Synthetic host-partitioned traffic (the test_shard model at bench
   scale): [hosts] hosts each emit [per_host] packets at RNG-drawn times
   to RNG-drawn destinations; pairwise latency = base lookahead + a
   deterministic per-pair spread. The observable is a per-host delivery
   count plus an order-independent xor checksum over mixed delivery
   timestamps, so runs are comparable across any shard/domain split. *)

let shard_base_lookahead = 10.0

let shard_latency ~src ~dst =
  shard_base_lookahead +. float_of_int (((src * 7) + (dst * 13)) mod 23)

let shard_mix x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let shard_plan ~hosts ~per_host =
  let rng = Rng.create ~seed in
  Array.init hosts (fun src ->
      Array.init per_host (fun _ ->
          let at = Rng.float rng 1_000_000.0 in
          let dst = Rng.int rng hosts in
          ignore src;
          (at, dst)))

type shard_outcome = { counts : int array; sums : int64 array }

let shard_note outcome ~host ~tag now =
  outcome.counts.(host) <- outcome.counts.(host) + 1;
  outcome.sums.(host) <-
    Int64.logxor outcome.sums.(host)
      (shard_mix (Int64.add (Int64.bits_of_float now) (Int64.of_int tag)))

(* shards = 0 runs the plain sequential engine (the reference). *)
let shard_run ~plan ~shards ~domains =
  let hosts = Array.length plan in
  let outcome = { counts = Array.make hosts 0; sums = Array.make hosts 0L } in
  if shards = 0 then begin
    let sim = Sim.create () in
    Array.iteri
      (fun src packets ->
        Array.iteri
          (fun k (at, dst) ->
            Sim.schedule sim ~delay:at (fun () ->
                let lat = shard_latency ~src ~dst in
                Sim.schedule sim ~delay:lat (fun () ->
                    shard_note outcome ~host:dst ~tag:((src * 1021) + k) (Sim.now sim))))
          packets)
      plan;
    let (), dt = time (fun () -> Sim.run sim) in
    (outcome, dt, Sim.events_executed sim, None)
  end
  else begin
    let t = Shard.create ~shards () in
    let conduits = Array.make_matrix shards shards None in
    for a = 0 to shards - 1 do
      for b = 0 to shards - 1 do
        if a <> b then
          conduits.(a).(b) <-
            Some (Shard.conduit t ~src:a ~dst:b ~lookahead_ns:shard_base_lookahead)
      done
    done;
    Array.iteri
      (fun src packets ->
        let s = src mod shards in
        let sim = Shard.sim t s in
        Array.iteri
          (fun k (at, dst) ->
            Sim.schedule sim ~delay:at (fun () ->
                let lat = shard_latency ~src ~dst in
                let tag = (src * 1021) + k in
                let d = dst mod shards in
                let deliver () =
                  shard_note outcome ~host:dst ~tag (Sim.now (Shard.sim t d))
                in
                if d = s then Sim.schedule sim ~delay:lat deliver
                else
                  match conduits.(s).(d) with
                  | Some c -> Shard.send t c ~delay:lat deliver
                  | None -> assert false))
          packets)
      plan;
    let (), dt = time (fun () -> Shard.run ~domains t) in
    let events =
      Array.fold_left
        (fun acc s -> acc + Sim.events_executed s)
        0
        (Array.init shards (fun i -> Shard.sim t i))
    in
    (outcome, dt, events, Some (Shard.stats t))
  end

(* --- parallel sweep --------------------------------------------------- *)

let sweep_ids = [ "fig9"; "fig10"; "fig11"; "sec6" ]

let quick_ctx () = { Bmhive.Experiments.default_ctx with quick = true; seed }
let sweep ~jobs = time (fun () -> Bmhive.Experiments.run ~jobs (quick_ctx ()) sweep_ids)

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
  progress "sweep --jobs 1";
  let r1, sweep1_s = sweep ~jobs:1 in
  progress "sweep --jobs 4";
  let r4, sweep4_s = sweep ~jobs:4 in
  let identical = r1 = r4 in
  let shard_hosts = 64 in
  let shard_per_host = if quick then 400 else 4_000 in
  let shard_n = 4 in
  progress "shards: %d hosts x %d packets, sequential reference" shard_hosts shard_per_host;
  let plan = shard_plan ~hosts:shard_hosts ~per_host:shard_per_host in
  let seq_out, seq_s, seq_events, _ = shard_run ~plan ~shards:0 ~domains:1 in
  progress "shards: 1 shard";
  let s1_out, s1_s, s1_events, _ = shard_run ~plan ~shards:1 ~domains:1 in
  progress "shards: %d shards, %d domains" shard_n shard_n;
  let sn_out, sn_s, sn_events, sn_stats = shard_run ~plan ~shards:shard_n ~domains:shard_n in
  let shard_identical = seq_out = s1_out && seq_out = sn_out in
  progress "per-cell timings";
  let cells = cell_seconds () in
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"seed\": %d,\n" seed;
  p "  \"quick\": %b,\n" quick;
  p "  \"note\": \"committed baselines are measured on a single-core container; wall-clock ratios for --jobs/--shards are skipped there and only the determinism (outcomes_identical) and alloc gates are load-bearing\",\n";
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
  p "  \"sweep\": {\n";
  p "    \"ids\": [%s],\n" (String.concat ", " (List.map (Printf.sprintf "%S") sweep_ids));
  p "    \"jobs_1_wall_s\": %.4f,\n" sweep1_s;
  p "    \"jobs_4_wall_s\": %.4f,\n" sweep4_s;
  (* On a single-core host a jobs-4 wall-clock "speedup" only measures
     domain overhead; publish the skip, not a misleading ratio. The
     outcome-identity check above still ran with real domains. *)
  if multicore then p "    \"wall_speedup\": %.2f,\n" (sweep1_s /. sweep4_s)
  else
    p "    \"wall_speedup_skipped\": \"single-core host (recommended_domains = 1)\",\n";
  p "    \"outcomes_identical\": %b\n" identical;
  p "  },\n";
  p "  \"shards\": {\n";
  p "    \"hosts\": %d,\n" shard_hosts;
  p "    \"packets_per_host\": %d,\n" shard_per_host;
  p "    \"sequential_sim\": { \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n"
    seq_events seq_s
    (float_of_int seq_events /. seq_s);
  p "    \"shards_1\": { \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f },\n"
    s1_events s1_s
    (float_of_int s1_events /. s1_s);
  (match sn_stats with
  | Some st ->
    p
      "    \"shards_%d\": { \"domains\": %d, \"events\": %d, \"wall_s\": %.4f, \
       \"events_per_sec\": %.0f, \"rounds\": %d, \"cross_messages\": %d },\n"
      shard_n shard_n sn_events sn_s
      (float_of_int sn_events /. sn_s)
      st.Shard.rounds st.Shard.cross_messages
  | None -> ());
  if multicore then p "    \"wall_speedup_vs_shards_1\": %.2f,\n" (s1_s /. sn_s)
  else
    p "    \"wall_speedup_skipped\": \"single-core host (recommended_domains = 1)\",\n";
  p "    \"outcomes_identical\": %b\n" shard_identical;
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
                 (hot/heap); shards %d identical: %b; sweep identical: %b (%d domain(s) \
                 recommended%s)\n"
    (hot_eps /. heap_eps) hot_wpe heap_wpe shard_n shard_identical identical
    rec_domains
    (if multicore then "" else "; wall speedups skipped");
  Printf.printf "written: %s\n" out_file
