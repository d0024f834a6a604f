(** DPDK-style poll-mode virtual switch (§3.4.2).

    One vswitch instance runs per physical server, forwarding packets
    between local endpoints and, through a {!Fabric}, across the
    datacenter network. All processing is user-space poll-mode: each
    forwarded burst costs switch CPU on the server's service cores, and
    there are no interrupts on the switch path.

    Endpoints are integers (they appear as [Packet.src]/[Packet.dst]).
    Delivery calls the endpoint's handler in scheduler context, from the
    event that ends the switch hop; the handler hands the burst on
    itself. *)

type t

type fabric

val create_fabric : ?net:Bm_fabric.Fabric.t -> unit -> fabric
(** The physical datacenter network: servers attach via 100 Gbit/s NICs
    (§3.4.3) with 10 µs one-way latency.
    With [net], cross-server traffic is carried by the link-level
    {!Bm_fabric.Fabric} model (ToR/spine topology, per-link queues,
    ECMP) instead of the flat wire: each subsequently created vswitch
    claims the next host port of the topology, so {!create} raises
    [Invalid_argument] once every port is taken — size the topology to
    the number of servers. *)

val create :
  ?obs:Bm_engine.Obs.t ->
  Bm_engine.Sim.t ->
  fabric:fabric ->
  cores:Bm_hw.Cores.t ->
  unit ->
  t
(** [create sim ~fabric ~cores ()] — [cores] are the server's service
    cores (hypervisor/base cores), which spend 300 ns forwarding each
    packet (a DPDK-class forwarding cost); one switch hop adds 5 µs of
    queueing/traversal latency, applied asynchronously so it adds
    latency, not sender backpressure.
    Each destination has a bounded egress queue of 256 bursts: a burst
    arriving for a destination whose queue is full is dropped at the
    tail and counted in {!egress_dropped}.
    With [obs], in-flight burst depth is sampled as a [queue_depth]
    counter on the ["cloud.vswitch"] track, forwarded packets feed the
    ["cloud.vswitch.pps"] meter and drops the ["cloud.vswitch.dropped"] /
    ["cloud.vswitch.unknown_dst_dropped"] /
    ["cloud.vswitch.egress_dropped"] counters; a burst for an unknown destination additionally emits an
    [unknown_dst] instant on the ["cloud.vswitch"] trace track. *)

val register : t -> deliver:(Bm_virtio.Packet.t -> unit) -> int
(** Attach an endpoint for good; returns its address, which is never
    reused. [deliver] receives each arriving burst (called in scheduler
    context — it should hand off to a process quickly). *)

val send : t -> Bm_virtio.Packet.t -> unit
(** Forward a burst to [Packet.dst]. Must be called from a process:
    charges switch CPU, crosses the fabric when the destination lives on
    another server, and drops the burst if the destination is unknown.
    {!send_callback} awaited ({!Bm_engine.Sim.await}). *)

val send_callback : t -> Bm_virtio.Packet.t -> (unit -> unit) -> unit
(** {!send} as a callback chain that calls its last argument where a
    process calling {!send} would return, on the same events. *)

val forward_hw : t -> Bm_virtio.Packet.t -> unit
(** Inject a burst already switched in hardware (an offload engine acting
    for a guest): delivers like {!send} but charges no switch CPU and
    never blocks. Callable from process or scheduler context. *)

val forwarded : t -> int
(** Total wire packets forwarded (burst-weighted). *)

val dropped : t -> int
(** All drops (unknown destination + egress overflow). *)

val unknown_dropped : t -> int
(** Packets dropped because the destination address resolved to no
    endpoint anywhere (subset of {!dropped}). *)

val egress_dropped : t -> int
(** Packets dropped at a full per-destination egress queue. *)
