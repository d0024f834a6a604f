(* Game-day scenario engine benchmark: host-side cost of running the
   composed default scenario (ramp + host/link failures + congestion +
   brownout + evacuation) over a live fleet, open-loop and with the
   degradation ladder, plus spec-parsing throughput and a double-run
   determinism check. Writes BENCH_scenario.json (repo root holds the
   committed baseline).

   Usage:
     scenario_bench.exe [--quick] [--seed N] [--out FILE]

   Sections:
     open_loop   events/sec of the default scenario with degrade:false
     ladder      events/sec with the degradation ladder engaged
     policies    events/sec and SLOs met for every degradation policy
     parse       parse_spec calls/sec on a representative spec string
     control_plane host us per Fleet.Live.meter_tick and per
                 Policy.blast_radius, with the scheduler's view snapshot
                 current (hit) and just invalidated (miss)
     evacuation  Fleet.Live.evacuate of the busiest host on a fresh
                 fleet: victims, chunks, and minor and promoted words
                 per chunk
     determinism scorecards of two identical ladder runs compared *)

module Scenario = Bmhive.Scenario
module Fleet = Bm_hyp.Fleet
module Policy = Bm_cloud.Policy
module Scheduler = Bm_cloud.Scheduler
module Slo = Bm_cloud.Slo
module Tenant = Bm_cloud.Tenant
module Topology = Bm_fabric.Topology
module Fabric = Bm_fabric.Fabric
open Bench_common

let args = parse_args ~name:"scenario_bench" ~default_out:"BENCH_scenario.json"
let { quick; seed; out_file; _ } = args

let fleet () = if quick then Fleet.Live.quick_config else Fleet.Live.default_config

let run_bench ?policy ~degrade () =
  let spec = Scenario.default_spec ~seed () in
  let o, wall_s = time (fun () -> Scenario.run ~degrade ?policy ~fleet:(fleet ()) spec) in
  (o, wall_s, float_of_int o.Scenario.sim_events /. wall_s)

let parse_bench ~calls =
  let spec_s = "7:hosts=2,links=1,congest=1,evac=1,brownout=1,ramp=0.5-2.0" in
  let (), wall_s =
    time (fun () ->
        for _ = 1 to calls do
          match Scenario.parse_spec spec_s with
          | Ok _ -> ()
          | Error e -> failwith e
        done)
  in
  float_of_int calls /. wall_s

(* Host cost of the control plane's per-tick and per-window reads on a
   freshly built fleet. A miss releases and re-places one guest before
   the timed call, which moves the scheduler's generation, so the call
   pays for rebuilding the view snapshot (and the metering plan). *)
type cp_cost = { meter_hit_us : float; meter_miss_us : float; blast_hit_us : float; blast_miss_us : float }

let control_plane_bench () =
  let live = Fleet.Live.build ~seed (fleet ()) in
  let sched = Fleet.Live.scheduler live in
  let topo = Bm_fabric.Fabric.topology (Fleet.Live.fabric live) in
  let tiers = List.mapi (fun i tn -> (Tenant.name tn, Slo.tier_of_index i)) (Scheduler.tenants sched) in
  let distressed = List.filteri (fun i _ -> i < 2) tiers in
  let blast () =
    ignore
      (Policy.blast_radius ~sched
         ~tor_of:(fun host -> Topology.tor_of topo ~host)
         ~tier_of:(fun tn -> List.assoc tn tiers)
         ~distressed ~failed_hosts:[ 0 ])
  in
  let meter () = Fleet.Live.meter_tick live ~tick_ns:1e6 in
  let name, _ = List.hd (Scheduler.assignments sched) in
  let req = Option.get (Scheduler.request_of sched name) in
  let invalidate () =
    Scheduler.release sched name;
    ignore (Scheduler.place sched req)
  in
  let hit_us f ~calls =
    f ();
    let (), s = time (fun () -> for _ = 1 to calls do f () done) in
    s /. float_of_int calls *. 1e6
  in
  let miss_us f ~calls =
    let total = ref 0.0 in
    for _ = 1 to calls do
      invalidate ();
      let (), s = time f in
      total := !total +. s
    done;
    !total /. float_of_int calls *. 1e6
  in
  let hits = if quick then 200 else 2_000 and misses = if quick then 20 else 50 in
  {
    meter_hit_us = hit_us meter ~calls:hits;
    meter_miss_us = miss_us meter ~calls:misses;
    blast_hit_us = hit_us blast ~calls:hits;
    blast_miss_us = miss_us blast ~calls:misses;
  }

(* Host cost of one pre-copy evacuation on a fresh fleet: the busiest
   host drained and its victims' memory streamed to quiescence. The
   chunks are the bursts the drained host's uplink carried, the only
   traffic on the fleet. Minor words per chunk bracket the call with
   [Gc.minor_words ()]; promoted words per chunk bracket it with a minor
   collection on each side, as engine_bench's datapath section counts
   them. Stream state that outlives a minor collection (a chunk list
   built up front) is what the promoted words count. *)
type evac_cost = { victims : int; chunks : int; minor_per_chunk : float; promoted_per_chunk : float }

let evacuation_bench () =
  let live = Fleet.Live.build ~seed (fleet ()) in
  let server, _ =
    List.fold_left
      (fun (bh, bc) (h, c) -> if c > bc then (h, c) else (bh, bc))
      (0, -1)
      (Scheduler.occupancy (Fleet.Live.scheduler live))
  in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let w0 = Gc.minor_words () in
  let e = Fleet.Live.evacuate live ~server in
  let words = Gc.minor_words () -. w0 in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
  let fab = Fleet.Live.fabric live in
  let uplink = Printf.sprintf "host%d->" server in
  let chunks =
    List.fold_left
      (fun acc (l : Fabric.link_stat) ->
        if String.starts_with ~prefix:uplink l.Fabric.name then acc + l.Fabric.sent_bursts else acc)
      0
      (Fabric.link_stats fab ~now:(Bm_engine.Sim.now (Fleet.Live.sim live)))
  in
  let per x = x /. float_of_int (max 1 chunks) in
  { victims = e.Fleet.Live.victims; chunks; minor_per_chunk = per words; promoted_per_chunk = per promoted }

let progress fmt = progress args fmt

let () =
  let cfg = fleet () in
  progress "open loop: default scenario over %d hosts / %d guests" cfg.Fleet.Live.hosts
    cfg.Fleet.Live.guests;
  let open_o, open_wall, open_eps = run_bench ~degrade:false () in
  progress "ladder: same scenario with degradation";
  let lad_o, lad_wall, lad_eps = run_bench ~degrade:true () in
  progress "determinism: ladder run repeated";
  let lad_o2, _, _ = run_bench ~degrade:true () in
  let identical = lad_o.Scenario.scorecard = lad_o2.Scenario.scorecard in
  let policy_cells =
    List.map
      (fun kind ->
        progress "policy %s: same scenario" (Policy.name kind);
        let o, wall_s, eps = run_bench ~policy:kind ~degrade:true () in
        (Policy.name kind, o, wall_s, eps))
      Policy.all
  in
  let calls = if quick then 20_000 else 200_000 in
  progress "parse: %d parse_spec calls" calls;
  let parse_cps = parse_bench ~calls in
  progress "control plane: meter_tick and blast_radius, snapshot hit and miss";
  let cp = control_plane_bench () in
  progress "evacuation: the busiest host of a fresh fleet";
  let ev = evacuation_bench () in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"seed\": %d,\n" seed;
  p "  \"quick\": %b,\n" quick;
  p "  \"fleet\": { \"hosts\": %d, \"guests\": %d, \"tenants\": %d },\n" cfg.Fleet.Live.hosts
    cfg.Fleet.Live.guests cfg.Fleet.Live.tenants;
  p "  \"open_loop\": {\n";
  p "    \"sim_events\": %d,\n" open_o.Scenario.sim_events;
  p "    \"wall_s\": %.4f,\n" open_wall;
  p "    \"events_per_sec\": %.0f,\n" open_eps;
  p "    \"slo_met\": %d,\n" open_o.Scenario.met;
  p "    \"slo_missed\": %d\n" open_o.Scenario.missed;
  p "  },\n";
  p "  \"ladder\": {\n";
  p "    \"sim_events\": %d,\n" lad_o.Scenario.sim_events;
  p "    \"wall_s\": %.4f,\n" lad_wall;
  p "    \"events_per_sec\": %.0f,\n" lad_eps;
  p "    \"slo_met\": %d,\n" lad_o.Scenario.met;
  p "    \"slo_missed\": %d,\n" lad_o.Scenario.missed;
  p "    \"max_stage\": %d,\n" lad_o.Scenario.max_stage;
  p "    \"evacuated_guests\": %d\n" lad_o.Scenario.evacuated_guests;
  p "  },\n";
  p "  \"policies\": {\n";
  List.iteri
    (fun i (name, (o : Scenario.outcome), wall_s, eps) ->
      p "    \"%s\": {\n" name;
      p "      \"sim_events\": %d,\n" o.Scenario.sim_events;
      p "      \"wall_s\": %.4f,\n" wall_s;
      p "      \"events_per_sec\": %.0f,\n" eps;
      p "      \"slo_met\": %d,\n" o.Scenario.met;
      p "      \"max_stage\": %d,\n" o.Scenario.max_stage;
      p "      \"evacuated_guests\": %d\n" o.Scenario.evacuated_guests;
      p "    }%s\n" (if i < List.length policy_cells - 1 then "," else ""))
    policy_cells;
  p "  },\n";
  p "  \"parse\": {\n";
  p "    \"calls\": %d,\n" calls;
  p "    \"calls_per_sec\": %.0f\n" parse_cps;
  p "  },\n";
  p "  \"control_plane\": {\n";
  p "    \"meter_tick_us\": { \"hit\": %.1f, \"miss\": %.1f },\n" cp.meter_hit_us cp.meter_miss_us;
  p "    \"blast_radius_us\": { \"hit\": %.1f, \"miss\": %.1f }\n" cp.blast_hit_us cp.blast_miss_us;
  p "  },\n";
  p "  \"evacuation\": {\n";
  p "    \"victims\": %d,\n" ev.victims;
  p "    \"chunks\": %d,\n" ev.chunks;
  p "    \"minor_words_per_chunk\": %.3f,\n" ev.minor_per_chunk;
  p "    \"promoted_words_per_chunk\": %.3f\n" ev.promoted_per_chunk;
  p "  },\n";
  p "  \"determinism\": { \"scorecards_identical\": %b }\n" identical;
  p "}\n";
  let oc = open_out out_file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf
    "scenario bench: %.0f events/s open loop, %.0f events/s with ladder (SLO met %d -> %d); \
     parse %.0f/s; meter_tick %.1f/%.1f us, blast_radius %.1f/%.1f us (hit/miss); \
     evacuation %d victims, %d chunks, %.2f minor / %.2f promoted words per chunk; \
     deterministic: %b\n"
    open_eps lad_eps open_o.Scenario.met lad_o.Scenario.met parse_cps cp.meter_hit_us
    cp.meter_miss_us cp.blast_hit_us cp.blast_miss_us ev.victims ev.chunks ev.minor_per_chunk
    ev.promoted_per_chunk identical;
  Printf.printf "written: %s\n" out_file
