(** Deterministic datacenter network fabric.

    The layer between per-server vswitches that the single-server model
    short-circuits: hosts attach to ToR switches, ToRs to a spine tier
    ({!Topology}), and every directed edge is a store-and-forward link
    with finite bandwidth, propagation latency and a bounded drop-tail
    FIFO ({!Bm_engine.Sim.Bounded}), so congestion shows up as queueing
    delay first and loss second — not as an analytic rate cap.

    Multi-path routing is hash-based ECMP: a flow (src endpoint, dst
    endpoint, protocol, tag) hashes to one spine via a seed drawn from
    the fabric's RNG at construction, so path choice is stable for the
    life of a flow, identical across runs of the same seed, and spread
    across spines between flows. Packets of one flow therefore never
    reorder; different flows contend only where their paths share links.

    Everything runs on the simulation agenda: same seed + same topology
    + same offered traffic ⇒ bit-identical delivery order. *)

module Topology = Topology

type t

val create : ?obs:Bm_engine.Obs.t -> Bm_engine.Sim.t -> Bm_engine.Rng.t -> Topology.t -> t
(** Build the link graph and start one server per link: a chain of
    scheduler callbacks (receive, serialize, propagate), built once per
    link and started by one zero-delay event, not a fiber. The RNG
    seeds the ECMP hash (one draw; the generator is not retained).
    With [obs], each link records its queue depth (histogram
    ["fabric.link.<name>.depth"] and a trace counter on track
    ["fabric.<name>"]), delivered bytes (meter
    ["fabric.link.<name>.bytes"]) and drops (counter
    ["fabric.link.<name>.dropped"]), plus fabric-wide
    ["fabric.injected"] / ["fabric.delivered"] / ["fabric.dropped"]
    counters. Recording is pure observation. *)

val topology : t -> Topology.t

val attach : t -> int
(** Claim the next free host port, in call order (deterministic): the
    first attach is host 0. Raises [Invalid_argument] once every host
    of the topology is taken. *)

val link_names : t -> string list
(** Every directed link name, in the {!link_stats} order. *)

val fail_link : t -> name:string -> unit
(** Take one directed link down: every burst subsequently offered to it
    is dropped there (counted on the link and fabric-wide, [on_drop]
    fires) until {!repair_link}. Bursts already queued on the link when
    it fails continue to drain — the failure cuts admission, not work in
    flight, so accounting stays conservative. ECMP does {e not} route
    around a failed link: flows hashed onto it keep dying, which is
    exactly the blast radius a game-day scenario wants to measure.
    Idempotent; raises [Invalid_argument] on an unknown name. *)

val repair_link : t -> name:string -> unit
(** Bring a failed link back. Idempotent. *)

val link_up : t -> name:string -> bool

val links_down : t -> int
(** Directed links currently failed. *)

val send :
  t ->
  src_host:int ->
  dst_host:int ->
  ?on_drop:(Bm_virtio.Packet.t -> unit) ->
  deliver:(Bm_virtio.Packet.t -> unit) ->
  Bm_virtio.Packet.t ->
  unit
(** Inject a burst at [src_host]'s uplink; [deliver] fires (in scheduler
    context) when the last hop's propagation completes. A burst that
    meets a full queue at any hop is dropped there, counted on that
    link, and reported to [on_drop] (also scheduler context) — exactly
    once, since drop-tail discards the arriving burst. Never blocks, so
    it is safe from both process and scheduler context.
    [src_host = dst_host] delivers immediately (no wire). Raises
    [Invalid_argument] for hosts outside the topology. *)

val path_names : t -> src_host:int -> dst_host:int -> Bm_virtio.Packet.t -> string list
(** The link names the given burst would traverse (ECMP-resolved). *)

val path_latency_ns : t -> src_host:int -> dst_host:int -> bytes:int -> float
(** Uncongested one-way latency of a [bytes]-sized burst between two
    hosts: the sum of per-link serialization and propagation along the
    path. Independent of the ECMP choice (spine links are uniform). *)

val path_capacity_gbit_s : t -> src_host:int -> dst_host:int -> float
(** Bottleneck bandwidth of the path (min link rate). *)

val injected : t -> int
(** Wire packets accepted by {!send} (burst-weighted). *)

val delivered : t -> int

val dropped : t -> int
(** Wire packets lost to full queues, over all links. *)

type link_stat = {
  name : string;  (** e.g. ["host0->tor0"], ["tor1->spine0"] *)
  gbit_s : float;
  utilization : float;  (** busy serialization time / elapsed time *)
  depth_p99 : float;  (** p99 of enqueue-time queue depth (min bucket 1) *)
  sent_bursts : int;  (** bursts offered to this link's queue (incl. dropped) *)
  delivered_bursts : int;  (** bursts serialized and forwarded *)
  dropped_bursts : int;  (** bursts drop-tailed at this link's queue *)
  delivered_pkts : int;
  dropped_pkts : int;
  queued : int;  (** bursts still in the queue *)
}

val link_stats : t -> now:float -> link_stat list
(** One entry per directed link, in a fixed order (host uplinks, host
    downlinks, ToR→spine, spine→ToR). Each link conserves
    [sent_bursts = delivered_bursts + dropped_bursts + queued]; at
    quiescence [queued = 0]. *)

type pressure = {
  link : string;
  spine : bool;  (** ToR→spine or spine→ToR (the shared tier) *)
  queued_bursts : int;  (** bursts in the egress queue right now *)
  dropped_pkts_total : int;  (** cumulative drop counter *)
}

val queue_pressure : t -> pressure list
(** The congestion signal a closed-loop degradation policy samples
    every SLO window: instantaneous queue depth plus the cumulative
    drop counter per directed link, in the {!link_stats} order. Pure
    observation (no histogram scans, no simulation operations), cheap
    enough to poll at window granularity. *)
