open Bm_engine

type workload_class = Idle | Web | Database | Cache | Hpc | Io_heavy

(* Mixture calibrated against Table 2: 3.82% of VMs above 10K exits/s,
   0.37% above 50K, 0.13% above 100K. Most of the fleet barely exits;
   a small I/O-heavy population carries the tail. *)
let class_mix =
  [ (Idle, 0.35); (Web, 0.38); (Database, 0.15); (Cache, 0.07); (Hpc, 0.02); (Io_heavy, 0.03) ]

let sample_class rng =
  let u = Rng.float rng 1.0 in
  let rec pick acc = function
    | [] -> Io_heavy
    | (cls, p) :: rest -> if u < acc +. p then cls else pick (acc +. p) rest
  in
  pick 0.0 class_mix

(* Exit-rate medians (per second per vCPU) and lognormal shapes. *)
let rate_params = function
  | Idle -> (30.0, 1.0)
  | Web -> (600.0, 1.0)
  | Database -> (1_800.0, 1.0)
  | Cache -> (3_500.0, 1.1)
  | Hpc -> (300.0, 0.8)
  | Io_heavy -> (9_000.0, 1.35)

let sample_exit_rate rng cls =
  let median, sigma = rate_params cls in
  Rng.lognormal rng ~median ~sigma

type exit_survey = { vms : int; over_10k : float; over_50k : float; over_100k : float }

(* Table 2's thresholds over [vms] exit rates; [rate i] draws the i-th,
   in order, so both surveys consume their RNG exactly as they call it. *)
let tally_exits ~vms rate =
  let over_10k = ref 0 and over_50k = ref 0 and over_100k = ref 0 in
  for i = 0 to vms - 1 do
    let r = rate i in
    if r > 10_000.0 then incr over_10k;
    if r > 50_000.0 then incr over_50k;
    if r > 100_000.0 then incr over_100k
  done;
  let frac r = if vms = 0 then 0.0 else float_of_int !r /. float_of_int vms in
  { vms; over_10k = frac over_10k; over_50k = frac over_50k; over_100k = frac over_100k }

let survey_exits rng ~vms =
  assert (vms > 0);
  tally_exits ~vms (fun _ -> sample_exit_rate rng (sample_class rng))

type preempt_window = {
  hour : int;
  shared_p99 : float;
  shared_p999 : float;
  exclusive_p99 : float;
  exclusive_p999 : float;
}

(* Datacenter host load: a mild diurnal swing around ~0.55. *)
let diurnal_load ~hour =
  let phase = float_of_int ((hour + 18) mod 24) /. 24.0 *. 2.0 *. Float.pi in
  0.55 +. (0.25 *. sin phase)

let percentile_of_array a p =
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.of_int n *. p /. 100.0) in
  a.(min (n - 1) rank)

let survey_preemption rng ~vms ~hours =
  assert (vms > 1 && hours > 0);
  List.init hours (fun hour ->
      let host_load = diurnal_load ~hour in
      let draw mode = Array.init vms (fun _ -> Preempt.sample_window_fraction rng ~mode ~host_load) in
      let shared = draw Preempt.Shared in
      let exclusive = draw Preempt.Exclusive in
      {
        hour;
        shared_p99 = percentile_of_array shared 99.0;
        shared_p999 = percentile_of_array shared 99.9;
        exclusive_p99 = percentile_of_array exclusive 99.0;
        exclusive_p999 = percentile_of_array exclusive 99.9;
      })

(* ------------------------------------------------------------------ *)
(* Live fleet                                                          *)
(* ------------------------------------------------------------------ *)

module Live = struct
  module Cp = Bm_cloud.Control_plane
  module Scheduler = Bm_cloud.Scheduler
  module Tenant = Bm_cloud.Tenant
  module Fabric = Bm_fabric.Fabric
  module Packet = Bm_virtio.Packet

  type config = {
    hosts : int;
    guests : int;
    tenants : int;
    host_ceiling : float;
  }

  let default_config = { hosts = 280; guests = 12_000; tenants = 40; host_ceiling = 0.9 }

  let quick_config = { default_config with hosts = 60; guests = 1_500; tenants = 12 }

  (* Resource shapes per class: vCPUs, plus the datapath intensity the
     metering fiber charges to the owning tenant. *)
  let vcpus_of = function
    | Idle -> 1
    | Web -> 1
    | Database -> 2
    | Cache -> 2
    | Hpc -> 4
    | Io_heavy -> 2

  (* Bytes/s and IOPS per vCPU while served — order-of-magnitude rates
     so the per-tenant meters separate the classes. *)
  let byte_rate_of = function
    | Idle -> 1e4
    | Web -> 5e6
    | Database -> 2e7
    | Cache -> 5e7
    | Hpc -> 1e6
    | Io_heavy -> 2e8

  let io_rate_of = function
    | Idle -> 1.0
    | Web -> 200.0
    | Database -> 2_000.0
    | Cache -> 8_000.0
    | Hpc -> 50.0
    | Io_heavy -> 20_000.0

  type t = {
    sim : Sim.t;
    fabric : Fabric.t;
    sched : Scheduler.t;
    config : config;
    obs : Obs.t;
    classes : (string, workload_class) Hashtbl.t;
    flow_rng : Rng.t;
    mutable packet_id : int;
    mutable placed : int;
    mutable place_failures : int;
    mutable flow_bursts : int;
    mutable meter_plan : (Tenant.t * float * float) array;
    mutable meter_plan_gen : int;  (* scheduler generation it was built at *)
  }

  let sim t = t.sim
  let obs t = t.obs
  let fabric t = t.fabric
  let scheduler t = t.sched
  let placed t = t.placed
  let place_failures t = t.place_failures
  let flow_bursts t = t.flow_bursts

  let pad_width n = String.length (string_of_int (max 1 (n - 1)))

  (* The fleet's shape: the fraction of hosts that are BM-Hive bases,
     the evacuation burst size and a guest's memory footprint per
     vCPU. *)
  let bm_fraction = 0.15
  let chunk_bytes = 4 * 1024 * 1024
  let mem_per_vcpu_gb = 2

  (* Bresenham spread: host i is a BM-Hive base iff the running count
     of bases crosses an integer at i — evenly interleaved, no RNG. *)
  let is_bm_host i =
    int_of_float (bm_fraction *. float_of_int (i + 1))
    > int_of_float (bm_fraction *. float_of_int i)

  let build ?trace ?metrics ?topo ~seed cfg =
    if cfg.hosts < 2 then invalid_arg "Fleet.Live.build: hosts must be >= 2";
    if cfg.guests < 1 then invalid_arg "Fleet.Live.build: guests must be >= 1";
    if cfg.tenants < 1 then invalid_arg "Fleet.Live.build: tenants must be >= 1";
    let root = Rng.create ~seed in
    let fabric_rng = Rng.split root in
    let class_rng = Rng.split root in
    let flow_rng = Rng.split root in
    let sim = Sim.create () in
    let obs = Obs.of_sim ?trace ?metrics sim in
    let topo =
      match topo with
      | Some topo when topo.Bm_fabric.Topology.hosts >= cfg.hosts -> topo
      | Some _ | None -> Bm_fabric.Topology.for_hosts ~hosts:cfg.hosts ()
    in
    let fabric = Fabric.create ~obs sim fabric_rng topo in
    let cp = Cp.create () in
    (* Server id = fabric host port: both are claimed in call order. *)
    for i = 0 to cfg.hosts - 1 do
      let port = Fabric.attach fabric in
      let id =
        Cp.add_server ~ceiling:cfg.host_ceiling cp
          (if is_bm_host i then Cp.Bm_server { boards = 16; board_threads = 8 }
           else Cp.Vm_server { sellable_threads = 88 })
      in
      assert (port = i && id = i)
    done;
    let sched = Scheduler.create ~obs cp in
    let twidth = pad_width cfg.tenants in
    let tenant_name i = Printf.sprintf "t%0*d" twidth i in
    (* Twice the fair share: roomy enough that the round-robin owner
       assignment below never rejects, tight enough that a hoarding
       tenant would. *)
    let quota =
      Tenant.
        {
          max_guests = max 8 (2 * cfg.guests / cfg.tenants);
          max_vcpus = max 32 (8 * cfg.guests / cfg.tenants);
        }
    in
    for i = 0 to cfg.tenants - 1 do
      Scheduler.register_tenant sched (Tenant.create ~obs ~name:(tenant_name i) quota)
    done;
    let gwidth = pad_width cfg.guests in
    let classes = Hashtbl.create (2 * cfg.guests) in
    let reqs =
      List.init cfg.guests (fun i ->
          let cls = sample_class class_rng in
          let name = Printf.sprintf "g%0*d" gwidth i in
          Hashtbl.replace classes name cls;
          (* Explicit substrates: a vm request must not strand a whole
             compute board, and every 33rd guest buys bare metal. *)
          let prefer = if i mod 33 = 0 then Cp.Bare_metal else Cp.Virtual in
          let group = if i mod 25 < 3 then Some (Printf.sprintf "aa%0*d" gwidth (i / 25)) else None in
          let vcpus = vcpus_of cls in
          Scheduler.request ~name ~tenant:(tenant_name (i mod cfg.tenants)) ~vcpus
            ~mem_gb:(mem_per_vcpu_gb * vcpus) ~prefer ?group ())
    in
    let t =
      {
        sim;
        fabric;
        sched;
        config = cfg;
        obs;
        classes;
        flow_rng;
        packet_id = 0;
        placed = 0;
        place_failures = 0;
        flow_bursts = 0;
        meter_plan = [||];
        meter_plan_gen = -1;
      }
    in
    List.iter
      (fun (_, r) ->
        match r with
        | Ok _ -> t.placed <- t.placed + 1
        | Error _ -> t.place_failures <- t.place_failures + 1)
      (Scheduler.place_batch sched reqs);
    t

  (* --- serving ------------------------------------------------------ *)

  (* The metering plan: one (tenant, bytes/s, IOPS) row per placed
     guest, in name order, rebuilt only when the scheduler's generation
     moves. Charging [rate *. tick_s] is [byte_rate_of cls *. v *. tick_s]
     as OCaml associates it, added to each tenant in the same order, so
     every meter is bit-identical to walking the assignments per tick. *)
  let meter_plan t =
    let gen = Scheduler.generation t.sched in
    if t.meter_plan_gen <> gen then begin
      t.meter_plan <-
        Scheduler.assignments t.sched
        |> List.filter_map (fun (name, _) ->
               match Scheduler.request_of t.sched name with
               | None -> None
               | Some req ->
                 Option.map
                   (fun tn ->
                     let cls = Hashtbl.find t.classes name in
                     let v = float_of_int req.Scheduler.vcpus in
                     (tn, byte_rate_of cls *. v, io_rate_of cls *. v))
                   (Scheduler.tenant t.sched req.Scheduler.tenant))
        |> Array.of_list;
      t.meter_plan_gen <- gen
    end;
    t.meter_plan

  (* Also a hook for external orchestrators: the game-day scenario
     engine drives metering itself instead of calling [serve], so it can
     interleave accounting ticks with its own traffic and faults. *)
  let meter_tick t ~tick_ns =
    let tick_s = tick_ns /. 1e9 in
    Array.iter
      (fun (tn, byte_rate, io_rate) ->
        Tenant.meter tn ~guest_ns:tick_ns ~bytes:(byte_rate *. tick_s) ~ios:(io_rate *. tick_s))
      (meter_plan t)

  let guest_host t name = Option.map (fun p -> p.Cp.server) (Scheduler.lookup t.sched name)

  let next_packet t = t.packet_id <- t.packet_id + 1; t.packet_id

  let serve ?(shards = 1) t ~duration_ns =
    if not (duration_ns > 0.0) then invalid_arg "Fleet.Live.serve: duration must be > 0";
    if shards < 1 then invalid_arg "Fleet.Live.serve: shards must be >= 1";
    let cfg = t.config in
    (* Metering fiber: eight accounting ticks over the window. *)
    Sim.spawn t.sim (fun () ->
        let tick = duration_ns /. 8.0 in
        for _ = 1 to 8 do
          Sim.delay tick;
          meter_tick t ~tick_ns:tick
        done);
    (* Sampled east-west traffic: 2 x hosts cross-host bursts spread
       over the window, exercising ECMP and the shared spine. Every
       flow crosses the fleet's one fabric, so flows that share a link
       queue behind each other there. *)
    let flows = 2 * cfg.hosts in
    let base = Sim.now t.sim in
    for k = 0 to flows - 1 do
      let src = Rng.int t.flow_rng cfg.hosts in
      let dst = Rng.int t.flow_rng cfg.hosts in
      let id = next_packet t in
      let at = duration_ns *. float_of_int k /. float_of_int flows in
      Sim.schedule t.sim ~delay:at (fun () ->
          Fabric.send t.fabric ~src_host:src ~dst_host:dst
            ~deliver:(fun _ ->
              t.flow_bursts <- t.flow_bursts + 1;
              Obs.add t.obs "fleet.flows.delivered" 1)
            (Packet.make ~id ~src ~dst ~size:65_536 ~count:43 ~protocol:Packet.Tcp
               ~sent_at:(base +. at) ()))
    done;
    Sim.run t.sim

  (* --- evacuation --------------------------------------------------- *)

  type evac_report = {
    victims : int;
    replaced : int;
    stranded : int;
    bytes_streamed : int;
    stream_ns : float;
  }

  (* The chunk pump both evacuation streams share. Its state is the
     moves still to send and the bytes of the head move already sent,
     so it holds O(moves) cells whatever the bytes: a chunk exists only
     from the moment a window slot frees to its delivery or drop. The
     deliver and drop callbacks are built once per stream. *)
  let stream t ~src ~window ~drop_frees_slot ~packet ~delivered moves =
    let rest = ref moves and sent = ref 0 in
    let rec next () =
      match !rest with
      | [] -> ()
      | (dst, bytes) :: tl ->
        if !sent >= bytes then begin
          rest := tl;
          sent := 0;
          next ()
        end
        else begin
          let size = min chunk_bytes (bytes - !sent) in
          sent := !sent + size;
          Fabric.send t.fabric ~src_host:src ~dst_host:dst
            ?on_drop:(if drop_frees_slot then refill else None)
            ~deliver (packet ~dst ~size)
        end
    and deliver p =
      delivered p.Packet.size;
      next ()
    and refill = Some (fun _ -> next ()) in
    for _ = 1 to window do
      next ()
    done

  (* Pre-copy: a single fleet-wide window of 32 chunks in flight keeps
     the drained host's uplink queue (64 bursts) from overflowing, so
     mass evacuation is drop-free by construction, as pre-copy
     migration must be. A drop would lose its window slot. *)
  let evacuate ?(stream_memory = true) t ~server =
    let results = Scheduler.drain t.sched ~server in
    let moves =
      List.filter_map
        (fun (name, r) ->
          match r with
          | Error _ -> None
          | Ok p ->
            let req = Option.get (Scheduler.request_of t.sched name) in
            Some (p.Cp.server, req.Scheduler.mem_gb * 1024 * 1024 * 1024))
        results
    in
    let stream_ns =
      if stream_memory && moves <> [] then begin
        let started = Sim.now t.sim in
        stream t ~src:server ~window:32 ~drop_frees_slot:false
          ~packet:(fun ~dst ~size ->
            Packet.make ~id:(next_packet t) ~src:server ~dst ~size ~count:(max 1 (size / 1500))
              ~protocol:Packet.Tcp ~sent_at:(Sim.now t.sim) ())
          ~delivered:(fun n -> Obs.add t.obs "fleet.evac.bytes" n)
          moves;
        Sim.run t.sim;
        Sim.now t.sim -. started
      end
      else 0.0
    in
    let replaced = List.length moves in
    {
      victims = List.length results;
      replaced;
      stranded = List.length results - replaced;
      bytes_streamed = List.fold_left (fun acc (_, b) -> acc + b) 0 (if stream_memory then moves else []);
      stream_ns;
    }

  let restore t ~server =
    Cp.restore_server (Scheduler.control_plane t.sched) server;
    let recovered =
      List.length (List.filter (fun (_, r) -> Result.is_ok r) (Scheduler.retry_stranded t.sched))
    in
    recovered

  (* --- views -------------------------------------------------------- *)

  let occupancy_table t =
    let cp = Scheduler.control_plane t.sched in
    let b = Buffer.create 4096 in
    List.iter
      (fun (id, count) ->
        Buffer.add_string b
          (Printf.sprintf "host %4d %s util %.3f guests %4d\n" id
             (if Cp.server_failed cp id then "down" else "up  ")
             (Cp.server_utilization cp id)
             count))
      (Scheduler.occupancy t.sched);
    Buffer.add_string b
      (Printf.sprintf "placed %d stranded %d\n" (List.length (Scheduler.assignments t.sched))
         (List.length (Scheduler.stranded t.sched)));
    Buffer.contents b

  (* --- surveys: the sampler API, driven by the live population ------- *)

  let exit_survey t rng =
    let names = Array.of_list (List.map fst (Scheduler.assignments t.sched)) in
    tally_exits ~vms:(Array.length names) (fun i ->
        sample_exit_rate rng (Hashtbl.find t.classes names.(i)))

end
