(* The five benchmark workloads. Each one drives the simulator only
   through the public functions of its layers and times every call it
   makes: set-up calls count towards [setup_s], measured calls towards
   [wall_s]. A rep builds fresh simulators from its input seed, so every
   simulated output must repeat exactly for a repeated seed. *)

open Bm_engine
module Testbed = Bm_workload.Testbed
module Nginx = Bm_workload.Nginx
module Instance = Bm_guest.Instance
module Packet = Bm_virtio.Packet
module Fleet = Bm_hyp.Fleet
module Scheduler = Bm_cloud.Scheduler
module Policy = Bm_cloud.Policy
module Slo = Bm_cloud.Slo
module Fabric = Bm_fabric.Fabric
module Scenario = Bmhive.Scenario

type ctx = {
  seed : int;
  quick : bool;
  shards : int;  (** [Fleet.Live.serve] shards *)
  metrics : Metrics.t option;
  trace : Trace.t option;
  spans : Span.t;
  mutable setup_s : float;
  mutable wall_s : float;
  mutable events : int;  (** simulation events run by the measured calls *)
  mutable lane_events : int;  (** of which off the zero-delay hot lane; -1 when unknown *)
  mutable alloc_words : float;  (** words allocated by the main domain in measured calls *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

type result = {
  sim : (string * float) list;
      (** simulated outputs: a pure function of the seed, so identical
          across reps, traced or not, and across [shards] *)
  checks : (string * bool) list;  (** output checks; any [false] fails the run *)
  claims : (string * float * float) list;
      (** [(name, a, b)]: a claim of the paper or a scorecard, that the
          sum of [a] over the run's input seeds is at least that of [b] *)
  attempted : int;  (** simulated operations issued *)
  failed : int;  (** of which dropped, rejected, shed, stranded or lost *)
}

let allocated (st : Gc.stat) = st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

let setup ctx name f =
  let v, dt = Span.record ctx.spans name f in
  ctx.setup_s <- ctx.setup_s +. dt;
  v

let measure ctx name f =
  let g0 = Gc.quick_stat () in
  let v, dt = Span.record ctx.spans name f in
  let g1 = Gc.quick_stat () in
  ctx.wall_s <- ctx.wall_s +. dt;
  ctx.alloc_words <- ctx.alloc_words +. allocated g1 -. allocated g0;
  ctx.minor_gcs <- ctx.minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
  ctx.major_gcs <- ctx.major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
  v

let count_events ctx sim =
  let st = Sim.stats sim in
  ctx.events <- ctx.events + st.Sim.executed;
  if ctx.lane_events >= 0 then ctx.lane_events <- ctx.lane_events + st.Sim.lane

let testbed ctx =
  setup ctx "workloads.testbed" (fun () ->
      Testbed.make ~seed:ctx.seed ?trace:ctx.trace ?metrics:ctx.metrics ())

let us ns = ns /. 1e3

let percentile_us h p = if Stats.Histogram.count h = 0 then 0.0 else us (Stats.Histogram.percentile h p)

let arm_name = function `Bm -> "bm" | `Vm -> "vm"

(* Run until every operation has resolved, in 10 ms steps from [from]. A
   vm-guest can lose its CPU to the host for tens of ms, so no fixed
   drain window is always long enough; after a simulated second the run
   stops and the conservation check reports what is missing. *)
let run_until_resolved sim ~from ~resolved =
  let rec go t =
    Sim.run ~until:t sim;
    if (not (resolved ())) && t < from +. Simtime.sec 1.0 then go (t +. Simtime.ms 10.0)
  in
  go from

(* Sleep until [due] in an open-loop sender; a sender that is already
   late records its slip behind schedule in [lag]. *)
let wait_until due lag =
  let now = Sim.clock () in
  if due > now then Sim.delay (due -. now) else lag := Float.max !lag (now -. due)

(* --- guest_net ------------------------------------------------------- *)

(* Open-loop 64 B UDP between a co-resident pair at a fixed packet rate,
   one packet per descriptor, spread over four sender fibers. Each
   packet is timed from when it was due, so a stalled sender's backlog
   shows up as latency, and the sender's slip behind schedule is
   reported as lag. *)
let net_arm ctx arm ~rate ~n =
  let senders = 4 in
  let tb = testbed ctx in
  let src, dst =
    setup ctx "guests.provision" (fun () ->
        match arm with
        | `Bm ->
          let _, a, b = Testbed.bm_pair tb in
          (a, b)
        | `Vm ->
          let _, a, b = Testbed.vm_pair tb in
          (a, b))
  in
  let due =
    setup ctx "bench.generate" (fun () -> Gen.arrivals (Rng.create ~seed:ctx.seed) ~rate_per_s:rate ~n)
  in
  let hist = Stats.Histogram.create ~lo:100.0 ~hi:1e9 ~precision:0.001 () in
  let received = ref 0 and dropped = ref 0 and lag = ref 0.0 in
  dst.Instance.set_rx_handler (fun pkt ->
      received := !received + pkt.Packet.count;
      Stats.Histogram.add hist (Sim.clock () -. pkt.Packet.sent_at));
  for s = 0 to senders - 1 do
    Sim.spawn tb.Testbed.sim (fun () ->
        let i = ref s in
        while !i < n do
          let d = due.(!i) in
          wait_until d lag;
          let pkt =
            Packet.make ~id:!i ~src:src.Instance.endpoint ~dst:dst.Instance.endpoint ~size:64
              ~protocol:Packet.Udp ~sent_at:d ()
          in
          if not (src.Instance.send pkt) then incr dropped;
          i := !i + senders
        done)
  done;
  measure ctx "engine.run" (fun () ->
      run_until_resolved tb.Testbed.sim ~from:due.(n - 1) ~resolved:(fun () -> !received + !dropped = n));
  count_events ctx tb.Testbed.sim;
  let a = arm_name arm in
  let seconds = float_of_int n /. rate in
  ( [
      ("sim." ^ a ^ "_p50_us", percentile_us hist 50.0);
      ("sim." ^ a ^ "_p999_us", percentile_us hist 99.9);
      ("sim." ^ a ^ "_goodput_per_s", float_of_int !received /. seconds);
      ("sim." ^ a ^ "_max_lag_us", us !lag);
    ],
    [ (a ^ " sent = received + dropped", n = !received + !dropped) ],
    !dropped )

let guest_net ctx =
  let rate = 2.0e6 and n = if ctx.quick then 4_000 else 40_000 in
  let bm, bm_checks, bm_dropped = net_arm ctx `Bm ~rate ~n in
  let vm, vm_checks, vm_dropped = net_arm ctx `Vm ~rate ~n in
  {
    sim = bm @ vm;
    checks = bm_checks @ vm_checks;
    claims = [];
    attempted = 2 * n;
    failed = bm_dropped + vm_dropped;
  }

(* --- guest_blk ------------------------------------------------------- *)

(* Open-loop 4 KiB random I/O, reads and writes mixed 70/30 from the
   seed. A dispatcher fiber forks one fiber per request when it falls
   due; each request is timed from its due time to completion. *)
let blk_arm ctx arm ~rate ~n =
  let tb = testbed ctx in
  let inst =
    setup ctx "guests.provision" (fun () ->
        match arm with `Bm -> snd (Testbed.bm_guest tb) | `Vm -> snd (Testbed.vm_guest tb))
  in
  let due, reads =
    setup ctx "bench.generate" (fun () ->
        let rng = Rng.create ~seed:ctx.seed in
        let due = Gen.arrivals rng ~rate_per_s:rate ~n in
        (due, Gen.read_mix rng ~n ~read_frac:0.7))
  in
  let hist = Stats.Histogram.create ~lo:1_000.0 ~hi:1e10 ~precision:0.001 () in
  let completed = ref 0 and failed = ref 0 and lag = ref 0.0 in
  Sim.spawn tb.Testbed.sim (fun () ->
      for i = 0 to n - 1 do
        let d = due.(i) in
        wait_until d lag;
        let op = if reads.(i) then `Read else `Write in
        Sim.fork (fun () ->
            match inst.Instance.blk_try ~op ~bytes_:4096 with
            | Ok _ ->
              incr completed;
              Stats.Histogram.add hist (Sim.clock () -. d)
            | Error (`Limited | `Busy | `Rejected) -> incr failed)
      done);
  measure ctx "engine.run" (fun () ->
      run_until_resolved tb.Testbed.sim ~from:due.(n - 1) ~resolved:(fun () -> !completed + !failed = n));
  count_events ctx tb.Testbed.sim;
  let a = arm_name arm in
  let seconds = float_of_int n /. rate in
  ( [
      ("sim." ^ a ^ "_p50_us", percentile_us hist 50.0);
      ("sim." ^ a ^ "_p999_us", percentile_us hist 99.9);
      ("sim." ^ a ^ "_goodput_per_s", float_of_int !completed /. seconds);
      ("sim." ^ a ^ "_max_lag_us", us !lag);
    ],
    [ (a ^ " issued = completed + failed", n = !completed + !failed) ],
    !failed )

let guest_blk ctx =
  let rate = 22_500.0 and n = if ctx.quick then 6_000 else 60_000 in
  let bm, bm_checks, bm_failed = blk_arm ctx `Bm ~rate ~n in
  let vm, vm_checks, vm_failed = blk_arm ctx `Vm ~rate ~n in
  let p999 arm = List.assoc ("sim." ^ arm ^ "_p999_us") (bm @ vm) in
  {
    sim = bm @ vm;
    checks = bm_checks @ vm_checks;
    claims = [ ("bm p99.9 <= vm p99.9 (Fig. 11)", p999 "vm", p999 "bm") ];
    attempted = 2 * n;
    failed = bm_failed + vm_failed;
  }

(* --- app_http -------------------------------------------------------- *)

(* NGINX with KeepAlive off under `ab`: a closed loop, so the rate is
   whatever the server sustains at this concurrency. *)
let http_arm ctx arm ~concurrency ~requests =
  let tb = testbed ctx in
  let server, client =
    setup ctx "guests.provision" (fun () ->
        let server =
          match arm with `Bm -> snd (Testbed.bm_guest tb) | `Vm -> snd (Testbed.vm_guest tb)
        in
        Nginx.serve server ();
        (server, Testbed.client_box tb))
  in
  let r =
    measure ctx "workloads.ab" (fun () ->
        Nginx.ab tb.Testbed.sim ~client ~server ~concurrency ~requests)
  in
  count_events ctx tb.Testbed.sim;
  let a = arm_name arm in
  ( [
      ("sim." ^ a ^ "_p99_us", r.Nginx.p99_ms *. 1e3);
      ("sim." ^ a ^ "_goodput_per_s", r.Nginx.rps);
    ],
    [ (a ^ " completed = requested", r.Nginx.requests = requests) ],
    requests - r.Nginx.requests )

let app_http ctx =
  let concurrency = if ctx.quick then 100 else 400 and requests = if ctx.quick then 600 else 6_000 in
  let bm, bm_checks, bm_failed = http_arm ctx `Bm ~concurrency ~requests in
  let vm, vm_checks, vm_failed = http_arm ctx `Vm ~concurrency ~requests in
  let rps arm = List.assoc ("sim." ^ arm ^ "_goodput_per_s") (bm @ vm) in
  {
    sim = bm @ vm;
    checks = bm_checks @ vm_checks;
    claims = [ ("bm RPS >= vm RPS (Fig. 12)", rps "bm", rps "vm") ];
    attempted = 2 * requests;
    failed = bm_failed + vm_failed;
  }

(* --- fleet_flows ----------------------------------------------------- *)

let fleet_config ctx = if ctx.quick then Fleet.Live.quick_config else Fleet.Live.default_config

let busiest_host sched =
  fst
    (List.fold_left
       (fun (bh, bc) (h, c) -> if c > bc then (h, c) else (bh, bc))
       (0, -1) (Scheduler.occupancy sched))

(* Build a live fleet, serve east-west traffic across the fabric, then
   run one maintenance cycle: evacuate the busiest host, repair it and
   rebalance. *)
let fleet_flows ctx =
  let cfg = fleet_config ctx in
  let serves = 4 and window = Simtime.ms (if ctx.quick then 2.0 else 10.0) in
  let live =
    setup ctx "hyp.fleet_build" (fun () ->
        Fleet.Live.build ?trace:ctx.trace ?metrics:ctx.metrics ~seed:ctx.seed cfg)
  in
  let sched = Fleet.Live.scheduler live in
  for _ = 1 to serves do
    measure ctx "hyp.fleet_serve" (fun () ->
        Fleet.Live.serve ~shards:ctx.shards live ~duration_ns:window)
  done;
  let victim = busiest_host sched in
  let evac = measure ctx "hyp.fleet_evacuate" (fun () -> Fleet.Live.evacuate live ~server:victim) in
  let recovered = measure ctx "hyp.fleet_restore" (fun () -> Fleet.Live.restore live ~server:victim) in
  let moves = measure ctx "cloud.rebalance" (fun () -> Scheduler.rebalance sched ()) in
  (* Sharded serves run their flows on replica simulators the fleet does
     not expose, so the event counts cover the main simulator only. *)
  count_events ctx (Fleet.Live.sim live);
  if ctx.shards > 1 then ctx.lane_events <- -1;
  let fab = Fleet.Live.fabric live in
  let links = Fabric.link_stats fab ~now:(Sim.now (Fleet.Live.sim live)) in
  let max_util = List.fold_left (fun acc l -> Float.max acc l.Fabric.utilization) 0.0 links in
  let placed = List.length (Scheduler.assignments sched) in
  let stranded = List.length (Scheduler.stranded sched) in
  let flows = serves * 2 * cfg.Fleet.Live.hosts in
  let bursts = Fleet.Live.flow_bursts live in
  let f = float_of_int in
  {
    sim =
      [
        ("sim.evac_ms", evac.Fleet.Live.stream_ns /. 1e6);
        ("sim.evac_victims", f evac.Fleet.Live.victims);
        ("sim.evac_bytes", f evac.Fleet.Live.bytes_streamed);
        ("sim.flow_bursts", f bursts);
        ("sim.restored", f recovered);
        ("cloud.sched.moves", f (List.length moves));
        ("cloud.sched.placed_at_build", f (Fleet.Live.placed live));
        ("cloud.sched.stranded", f stranded);
        ("fabric.injected", f (Fabric.injected fab));
        ("fabric.delivered", f (Fabric.delivered fab));
        ("fabric.dropped", f (Fabric.dropped fab));
        ("fabric.max_link_util", max_util);
      ];
    checks =
      [
        ("placed + stranded = guests", placed + stranded = cfg.Fleet.Live.guests);
        ("no fabric drops", Fabric.dropped fab = 0);
        ("evacuation replaced = victims", evac.Fleet.Live.replaced = evac.Fleet.Live.victims);
        ("every flow burst delivered", bursts = flows);
      ];
    claims = [];
    attempted = cfg.Fleet.Live.guests + evac.Fleet.Live.victims + flows;
    failed = Fleet.Live.place_failures live + evac.Fleet.Live.stranded + (flows - bursts);
  }

(* --- game_day -------------------------------------------------------- *)

(* The committed game day under two degradation policies, back to back.
   [Scenario.run] builds its fleet internally, so set-up is measured by
   building the same fleet once outside it. *)
let game_day ctx =
  (* A third of the default fleet (93 hosts, 4,000 guests, 13 tenants)
     keeps a rep under a second, and the scorecard ordering still holds
     there. *)
  let cfg =
    let c = fleet_config ctx in
    if ctx.quick then c
    else { c with Fleet.Live.hosts = c.Fleet.Live.hosts / 3; guests = c.Fleet.Live.guests / 3; tenants = c.Fleet.Live.tenants / 3 }
  in
  let spec =
    setup ctx "core.scenario_spec" (fun () ->
        if ctx.quick then Scenario.default_spec ~horizon_ns:(Simtime.ms 0.5) ~seed:ctx.seed ()
        else Scenario.default_spec ~seed:ctx.seed ())
  in
  ignore (setup ctx "hyp.fleet_build" (fun () -> Fleet.Live.build ~seed:ctx.seed cfg) : Fleet.Live.t);
  let run kind =
    let o =
      measure ctx ("core.scenario." ^ Policy.name kind) (fun () ->
          Scenario.run ?trace:ctx.trace ?metrics:ctx.metrics ~policy:kind ~fleet:cfg spec)
    in
    ctx.events <- ctx.events + o.Scenario.sim_events;
    o
  in
  ctx.lane_events <- -1;
  let lad = run Policy.Ladder in
  let con = run Policy.Congestion in
  let both = [ lad; con ] in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 both in
  let f = float_of_int in
  let offered = sum (fun o -> o.Scenario.delivered + o.Scenario.failed + o.Scenario.shed) in
  let conserved (o : Scenario.outcome) =
    List.for_all
      (fun (s : Slo.tenant_score) -> s.Slo.offered = s.Slo.delivered + s.Slo.failed + s.Slo.shed_count)
      o.Scenario.scores
    && List.fold_left (fun acc (s : Slo.tenant_score) -> acc + s.Slo.delivered) 0 o.Scenario.scores
       = o.Scenario.delivered
  in
  {
    sim =
      [
        ("sim.slo_met", f (sum (fun o -> o.Scenario.met)));
        ("sim.slo_met.ladder", f lad.Scenario.met);
        ("sim.slo_met.congestion", f con.Scenario.met);
        ("sim.failed_frac", f (sum (fun o -> o.Scenario.failed + o.Scenario.shed)) /. f offered);
        ("sim.events.ladder", f lad.Scenario.sim_events);
        ("sim.events.congestion", f con.Scenario.sim_events);
        ("core.policy.stage_actions", f (sum (fun o -> o.Scenario.stage_actions)));
        ("core.policy.max_stage", f (max lad.Scenario.max_stage con.Scenario.max_stage));
        ("fault.guard_retries", f (sum (fun o -> o.Scenario.guard_retries)));
        ("fault.breaker_opens", f (sum (fun o -> o.Scenario.breaker_opens)));
        ("core.evacuated_guests", f (sum (fun o -> o.Scenario.evacuated_guests)));
        ("core.evac_bytes", f (sum (fun o -> o.Scenario.evac_bytes)));
      ];
    checks =
      [
        ("ladder requests resolve once", conserved lad);
        ("congestion requests resolve once", conserved con);
      ];
    (* The policy scorecard's ordering holds on this fleet summed over a
       run's input seeds, not on every seed, and not on the quick fleet,
       where another policy wins. *)
    claims =
      (if ctx.quick then []
       else [ ("congestion SLOs met >= ladder (policy scorecard)", f con.Scenario.met, f lad.Scenario.met) ]);
    attempted = offered;
    (* Requests lost to the injected faults are the scenario's outcome,
       reported in sim.failed_frac, not benchmark failures. *)
    failed = 0;
  }

(* [shards]: how many fabric replicas [Fleet.Live.serve] runs on, each
   on its own domain; every other workload runs on one domain. *)
type workload = { name : string; shards : int; run : ctx -> result }

let all =
  [
    { name = "guest_net"; shards = 1; run = guest_net };
    { name = "guest_blk"; shards = 1; run = guest_blk };
    { name = "app_http"; shards = 1; run = app_http };
    { name = "fleet_flows"; shards = 2; run = fleet_flows };
    { name = "game_day"; shards = 1; run = game_day };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
