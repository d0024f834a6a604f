(** Fleet telemetry (Table 2, Fig. 1) and the live fleet simulation.

    The paper measures 300,000 production VMs for five minutes (Table 2:
    VM exits per second per vCPU) and 20,000 VMs for 24 hours (Fig. 1:
    preemption percentiles). We cannot replay production traces, so this
    module samples the same statistics from the mechanism models: each VM
    draws a workload class, the class implies an exit-rate distribution
    (and interacts with the host-load model for preemption).

    Two fleets live here:

    - the original {e Monte-Carlo sampler} ({!survey_exits},
      {!survey_preemption}) — population statistics with no placement,
      no hosts, no network;
    - the {e live fleet} ({!Live}) — hundreds of fabric-attached hosts,
      a bin-packing {!Bm_cloud.Scheduler}, tenants with quotas and
      metering, and mass evacuation streamed over the {!Bm_fabric.Fabric}.

    The sampler is the population model. [table2] runs {!survey_exits}
    over 300K VMs and [fig1] runs {!survey_preemption} over 20K, more
    than the live fleet's default 12K guests, so the two experiments
    sample a population rather than read one off a placed fleet. {!Live}
    reuses that model: each guest's class comes from the same class
    mixture, and {!Live.exit_survey} tallies the same exit-rate draws
    against the same thresholds as {!survey_exits}, conditioned on the
    classes of the guests actually placed, so the two paths cannot
    drift. *)

type workload_class = Idle | Web | Database | Cache | Hpc | Io_heavy

type exit_survey = {
  vms : int;
  over_10k : float;  (** fraction of VMs with > 10K exits/s/vCPU *)
  over_50k : float;
  over_100k : float;
}

val survey_exits : Bm_engine.Rng.t -> vms:int -> exit_survey
(** Reproduces Table 2 (paper: 3.82%% / 0.37%% / 0.13%%). *)

type preempt_window = {
  hour : int;
  shared_p99 : float;
  shared_p999 : float;
  exclusive_p99 : float;
  exclusive_p999 : float;
}

val survey_preemption :
  Bm_engine.Rng.t -> vms:int -> hours:int -> preempt_window list
(** Reproduces Fig. 1: per hour of the day, the p99/p99.9 preemption
    fraction across the fleet, for shareable and exclusive VMs. Host
    load follows a diurnal curve. *)

val diurnal_load : hour:int -> float
(** The host-load curve used by {!survey_preemption}. *)

(** The live fleet: placement, tenants, serving traffic, mass
    evacuation. Everything is a pure function of [(seed, config, topo)]
    — the property and golden tests depend on it. *)
module Live : sig
  type config = {
    hosts : int;  (** fabric-attached servers *)
    guests : int;  (** instances requested at build time *)
    tenants : int;  (** owners; guests assigned round-robin *)
    host_ceiling : float;  (** per-host sellable fraction: the utilization admission ceiling *)
  }

  val default_config : config
  (** 280 hosts (15%% BM bases of 16 boards, the rest 88-thread
      virtualization servers), 12,000 guests, 40 tenants, 0.9 per-host
      ceiling, 4 MB evacuation chunks. Sized so the packed fleet runs at
      ~80%% of its ceiling-limited capacity — evacuation headroom. *)

  val quick_config : config
  (** 60 hosts / 1,500 guests / 12 tenants — same proportions, CI-sized. *)

  val chunk_mb : int
  (** Evacuation burst size: 4 MB. *)

  type t

  val build :
    ?trace:Bm_engine.Trace.t ->
    ?metrics:Bm_engine.Metrics.t ->
    ?topo:Bm_fabric.Topology.t ->
    seed:int ->
    config ->
    t
  (** Construct the fleet: auto-size a Clos ({!Bm_fabric.Topology.for_hosts})
      unless [topo] is given and large enough, attach every host (server
      id = fabric port), register tenants (quota: twice the fair share),
      draw each guest's workload class from the sampler's class
      mixture, and place the whole population first-fit-decreasing. Every 33rd guest requests
      bare metal; three of every 25 guests form an anti-affinity group.
      Same [seed] + [config] ⇒ identical fleet, byte for byte. *)

  val sim : t -> Bm_engine.Sim.t

  val obs : t -> Bm_engine.Obs.t
  (** The recording context {!build} made over {!sim} and its sinks:
      an orchestrator that drives the fleet's simulator records through
      this one context, not a second one over the same sinks. *)

  val fabric : t -> Bm_fabric.Fabric.t
  val scheduler : t -> Bm_cloud.Scheduler.t

  val placed : t -> int
  (** Guests successfully placed at build time. *)

  val place_failures : t -> int

  val serve : ?shards:int -> t -> duration_ns:float -> unit
  (** Run the fleet for a window of simulated time: a metering fiber
      charges guest-seconds, bytes and IOPS to each owning tenant in
      eight ticks (class-dependent rates), while [2 x hosts] sampled
      east-west bursts cross the fabric. Runs the simulation to
      quiescence.

      Everything runs on the fleet's own simulator and fabric: every
      tenant's flows share the ToR and spine links, as in one
      datacenter network, so flows queue behind each other and drop
      where they meet. [shards] (default 1) must be >= 1 and has no
      other effect; the output is the same for any value. It stays
      only because the repository benchmark still passes it. *)

  val flow_bursts : t -> int
  (** East-west bursts delivered by {!serve} so far. *)

  val meter_tick : t -> tick_ns:float -> unit
  (** Charge one accounting tick (guest-seconds, bytes, IOPS per owning
      tenant) for every currently placed guest — the same accounting
      {!serve} performs eight times per window, exposed so an external
      orchestrator (the game-day scenario engine) can interleave
      metering with its own traffic and fault timeline. *)

  val guest_host : t -> string -> int option
  (** The server (= fabric host port) a guest is currently placed on;
      [None] for unknown or stranded guests. Tracks evacuations. *)

  type evac_report = {
    victims : int;  (** guests on the failed host *)
    replaced : int;  (** re-placed elsewhere *)
    stranded : int;  (** admitted but nowhere to go *)
    bytes_streamed : int;  (** memory moved over the fabric *)
    stream_ns : float;  (** simulated time the pre-copy stream took *)
  }

  val evacuate : ?stream_memory:bool -> t -> server:int -> evac_report
  (** Fail [server] and drain it ({!Bm_cloud.Scheduler.drain}), then —
      unless [stream_memory] is [false] — stream each re-placed victim's
      memory to its new host in [chunk_mb] bursts over the fabric,
      keeping a fleet-wide window of 32 bursts in flight so the drained
      host's uplink queue (64) never drops: the pre-copy phase of mass
      live migration. Runs the simulation to quiescence. *)

  val restore : t -> server:int -> int
  (** Repair [server] ({!Bm_cloud.Control_plane.restore_server}) and
      retry every stranded guest; returns how many recovered. *)

  val occupancy_table : t -> string
  (** One line per host — id, up/down, thread utilization, guest count —
      plus a placed/stranded total. The golden-trajectory regression
      commits this string verbatim. *)

  val exit_survey : t -> Bm_engine.Rng.t -> exit_survey
  (** Table 2 over the {e placed} population: the same exit-rate draws
      and threshold tally as {!survey_exits}, conditioned on each placed
      guest's class (all fractions 0 on an empty fleet). *)

end
