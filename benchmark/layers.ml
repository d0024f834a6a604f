(* Per-layer metrics, named after the lib/ directories. Each comes from
   one of four places:
   - [sim]: the workload's own simulated outputs for the run's seed;
   - the simulator's metrics registry of a traced rep, normalised per
     simulated operation where the name ends in [_per_op];
   - [host]: medians over untraced reps of the benchmark's own host-time
     spans and GC probes;
   - the traced rep's trace sink.
   A metric that a workload does not exercise reads 0. *)

open Bm_engine

type source = {
  ops : float;  (** simulated operations the rep issued *)
  failed : float;  (** of which failed *)
  sim : (string * float) list;
  registry : Metrics.t;
  trace : Trace.t;
  host : string -> float;  (** host-side median by name; 0 when absent *)
}

let counter s name =
  match List.assoc_opt name s.sim with Some v -> v | None -> Metrics.counter_value s.registry name

let hist_p s name p =
  match Metrics.histogram s.registry name with
  | Some h when Stats.Histogram.count h > 0 -> Stats.Histogram.percentile h p
  | _ -> 0.0

let meter_count s name =
  match Metrics.meter s.registry name with Some m -> float_of_int (Stats.Meter.count m) | None -> 0.0

let meter_rate s name =
  match Metrics.meter s.registry name with
  | Some m when Stats.Meter.count m > 1 -> Stats.Meter.rate m
  | _ -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0
let per_op s name = ratio (counter s name) s.ops
let sim_or_zero s name = Option.value (List.assoc_opt name s.sim) ~default:0.0

let max_link_depth_p99 s =
  List.fold_left
    (fun acc name ->
      if String.starts_with ~prefix:"fabric.link." name && String.ends_with ~suffix:".depth" name then
        Float.max acc (hist_p s name 99.0)
      else acc)
    0.0 (Metrics.names s.registry)

let host_s name = (name ^ "_host_s", "s", fun s -> s.host (name ^ "_host_s"))

let scenario_rate policy =
  ( "core.scenario." ^ policy ^ "_events_per_host_s",
    "1/s",
    fun s -> ratio (sim_or_zero s ("sim.events." ^ policy)) (s.host ("core.scenario." ^ policy ^ "_host_s")) )

(* name, unit, value *)
let table : (string * string * (source -> float)) list =
  [
    ("engine.events", "count", fun s -> s.host "engine.events");
    ("engine.events_per_op", "count/op", fun s -> ratio (s.host "engine.events") s.ops);
    ("engine.lane_frac", "ratio", fun s -> s.host "engine.lane_frac");
    ("engine.events_per_host_s", "1/s", fun s -> s.host "engine.events_per_host_s");
    ("engine.alloc_words_per_event", "words", fun s -> s.host "engine.alloc_words_per_event");
    ("engine.minor_gcs", "count", fun s -> s.host "engine.minor_gcs");
    ("engine.major_gcs", "count", fun s -> s.host "engine.major_gcs");
    ("engine.shard_speedup", "ratio", fun s -> s.host "engine.shard_speedup");
    host_s "bench.generate";
    host_s "workloads.testbed";
    host_s "guests.provision";
    host_s "engine.run";
    host_s "workloads.ab";
    host_s "hyp.fleet_build";
    host_s "hyp.fleet_serve";
    host_s "hyp.fleet_evacuate";
    host_s "hyp.fleet_restore";
    host_s "cloud.rebalance";
    host_s "core.scenario.ladder";
    host_s "core.scenario.congestion";
    scenario_rate "ladder";
    scenario_rate "congestion";
    ("bench.self_host_s", "s", fun s -> s.host "bench.self_host_s");
    ("hw.pcie.register_accesses_per_op", "count/op", fun s -> per_op s "hw.pcie.register_accesses");
    ("hw.dma.bytes_per_op", "B/op", fun s -> per_op s "hw.dma.bytes");
    ("hw.dma.copy_ns_p50", "ns", fun s -> hist_p s "hw.dma.copy_ns" 50.0);
    ("hw.dma.copy_ns_p99", "ns", fun s -> hist_p s "hw.dma.copy_ns" 99.0);
    ("virtio.vring.add_per_op", "count/op", fun s -> per_op s "virtio.vring.add");
    ("virtio.vring.used_per_op", "count/op", fun s -> per_op s "virtio.vring.used");
    ( "virtio.blk.reaped_over_submitted",
      "ratio",
      fun s -> ratio (meter_count s "virtio.blk.reaped") (counter s "virtio.blk.submitted") );
    ("iobond.doorbells_per_op", "count/op", fun s -> per_op s "iobond.doorbells");
    ("iobond.guest_irqs_per_op", "count/op", fun s -> per_op s "iobond.guest_irqs");
    ("iobond.mailbox.tail_writes_per_op", "count/op", fun s -> per_op s "iobond.mailbox.tail_writes");
    ("iobond.dropped_chains", "count", fun s -> counter s "iobond.dropped_chains");
    ("hyp.vmexit.injection_per_op", "count/op", fun s -> per_op s "hyp.vmexit.injection");
    ("hyp.vmexit.msr_per_op", "count/op", fun s -> per_op s "hyp.vmexit.msr");
    ("hyp.vmexit.ipi_per_op", "count/op", fun s -> per_op s "hyp.vmexit.ipi");
    ("hyp.preempt.stolen_ns_p99", "ns", fun s -> hist_p s "hyp.preempt.stolen_ns" 99.0);
    ("hyp.bm.blk_rejected", "count", fun s -> counter s "hyp.bm.blk_rejected");
    ("hyp.vm.blk_rejected", "count", fun s -> counter s "hyp.vm.blk_rejected");
    ("hyp.bm.blk_shed", "count", fun s -> counter s "hyp.bm.blk_shed");
    ("hyp.vm.blk_shed", "count", fun s -> counter s "hyp.vm.blk_shed");
    ("cloud.vswitch.pps", "1/s", fun s -> meter_rate s "cloud.vswitch.pps");
    ("cloud.vswitch.dropped", "count", fun s -> counter s "cloud.vswitch.dropped");
    ("cloud.blockstore.serve_ns_p50", "ns", fun s -> hist_p s "cloud.blockstore.serve_ns" 50.0);
    ("cloud.blockstore.serve_ns_p99", "ns", fun s -> hist_p s "cloud.blockstore.serve_ns" 99.0);
    ("cloud.blockstore.rejected", "count", fun s -> counter s "cloud.blockstore.rejected");
    ( "cloud.sched.placed_over_attempted",
      "ratio",
      fun s ->
        let placed = counter s "cloud.sched.placed" in
        ratio placed (placed +. counter s "cloud.sched.rejected") );
    ("cloud.sched.moves", "count", fun s -> counter s "cloud.sched.moves");
    ("cloud.sched.evacuated", "count", fun s -> counter s "cloud.sched.evacuated");
    ("cloud.sched.stranded", "count", fun s -> counter s "cloud.sched.stranded");
    ("cloud.slo.delivered", "count", fun s -> counter s "cloud.slo.delivered");
    ("cloud.slo.failed", "count", fun s -> counter s "cloud.slo.failed");
    ("cloud.slo.shed", "count", fun s -> counter s "cloud.slo.shed");
    ( "fabric.delivered_over_injected",
      "ratio",
      fun s -> ratio (counter s "fabric.delivered") (counter s "fabric.injected") );
    ("fabric.dropped", "count", fun s -> counter s "fabric.dropped");
    ("fabric.max_link_util", "ratio", fun s -> sim_or_zero s "fabric.max_link_util");
    ("fabric.max_depth_p99", "count", max_link_depth_p99);
    ("core.policy.stage_actions", "count", fun s -> sim_or_zero s "core.policy.stage_actions");
    ("core.policy.max_stage", "count", fun s -> sim_or_zero s "core.policy.max_stage");
    ("fault.guard_retries", "count", fun s -> sim_or_zero s "fault.guard_retries");
    ("fault.breaker_opens", "count", fun s -> sim_or_zero s "fault.breaker_opens");
    ("core.evacuated_guests", "count", fun s -> sim_or_zero s "core.evacuated_guests");
    ("core.evac_bytes", "B", fun s -> sim_or_zero s "core.evac_bytes");
    ( "obs.trace_events",
      "count",
      fun s -> float_of_int (List.length (Trace.events s.trace) + Trace.dropped s.trace) );
    ("obs.trace_dropped", "count", fun s -> float_of_int (Trace.dropped s.trace));
    ("obs.traced_wall_ratio", "ratio", fun s -> s.host "obs.traced_wall_ratio");
    ("sim.bm_p50_us", "us", fun s -> sim_or_zero s "sim.bm_p50_us");
    ("sim.bm_p999_us", "us", fun s -> sim_or_zero s "sim.bm_p999_us");
    ("sim.vm_p50_us", "us", fun s -> sim_or_zero s "sim.vm_p50_us");
    ("sim.vm_p999_us", "us", fun s -> sim_or_zero s "sim.vm_p999_us");
    ("sim.bm_p99_us", "us", fun s -> sim_or_zero s "sim.bm_p99_us");
    ("sim.vm_p99_us", "us", fun s -> sim_or_zero s "sim.vm_p99_us");
    ("sim.bm_goodput_per_s", "1/s", fun s -> sim_or_zero s "sim.bm_goodput_per_s");
    ("sim.vm_goodput_per_s", "1/s", fun s -> sim_or_zero s "sim.vm_goodput_per_s");
    ("sim.bm_max_lag_us", "us", fun s -> sim_or_zero s "sim.bm_max_lag_us");
    ("sim.vm_max_lag_us", "us", fun s -> sim_or_zero s "sim.vm_max_lag_us");
    ( "sim.failed_frac",
      "ratio",
      fun s ->
        match List.assoc_opt "sim.failed_frac" s.sim with Some v -> v | None -> ratio s.failed s.ops );
    ("sim.evac_ms", "ms", fun s -> sim_or_zero s "sim.evac_ms");
    ("sim.slo_met", "count", fun s -> sim_or_zero s "sim.slo_met");
  ]

let compute s = List.map (fun (name, unit, f) -> (name, unit, f s)) table
