(** Datacenter network topologies for the {!Fabric} model.

    A topology is a two-tier Clos: hosts attach to top-of-rack (ToR)
    switches, ToRs attach to a spine tier. Every edge is a pair of
    unidirectional links with bandwidth, propagation latency and a
    bounded FIFO queue (drop-tail). Hosts are assigned to ToRs in
    contiguous blocks ({!tor_of}), so host 0 and host [hosts-1] are
    always in different racks when [tors > 1]. *)

type link_params = {
  gbit_s : float;  (** serialization bandwidth, Gbit/s (= bits/ns) *)
  latency_ns : float;  (** one-way propagation/forwarding latency *)
  queue_capacity : int;  (** egress FIFO depth, in bursts (drop-tail) *)
}

type t = private {
  hosts : int;
  tors : int;
  spines : int;  (** 0 allowed only with a single ToR *)
  host_link : link_params;  (** host <-> ToR edges, both directions *)
  spine_link : link_params;  (** ToR <-> spine edges, both directions *)
}

val clos :
  hosts:int ->
  tors:int ->
  spines:int ->
  ?host_gbit_s:float ->
  ?spine_gbit_s:float ->
  ?host_latency_ns:float ->
  ?spine_latency_ns:float ->
  ?queue_capacity:int ->
  unit ->
  t
(** [clos ~hosts ~tors ~spines ()] — defaults: 100 Gbit/s host links
    (the paper's NIC, §3.4.3) with 1 µs latency, 100 Gbit/s spine links
    with 4 µs latency, queues of 64 bursts. Raises [Invalid_argument]
    unless [hosts >= tors >= 1] and [spines >= 1] (or [spines = 0] with
    a single ToR). Shrink [spine_gbit_s] below the sum of host offered
    load to model an oversubscribed spine. *)

val two_host : unit -> t
(** The minimal form: two hosts under one ToR, no spine — the smallest
    topology on which traffic crosses a wire. Host links take the
    {!clos} defaults; the unused spine link parameters match them. *)

val for_hosts : hosts:int -> unit -> t
(** Auto-size a Clos for a fleet of [hosts] hosts: racks of up to 32
    hosts, and — past one rack — a spine
    tier of [max 2 (ceil (tors / 4))] switches, the mild (4:1 worst
    case) oversubscription of a production pod. Link parameters take
    the {!clos} defaults. This is how the fleet-scale experiments turn
    a [--hosts N] knob into a topology. *)

val tor_of : t -> host:int -> int
(** Block assignment: host [h] lives under ToR [h * tors / hosts]. *)

val parse_spec : string -> (t, string) result
(** Parse a command-line topology spec. Either the preset [two_host] or
    comma-separated [key=value] pairs: [hosts], [tors], [spines]
    (integers), [host_gbit], [spine_gbit] (Gbit/s), [host_lat_us],
    [spine_lat_us] (µs), [queue] (bursts). Unspecified keys take the
    {!clos} defaults. Example:
    [hosts=4,tors=2,spines=2,spine_gbit=10,queue=32]. *)

val render : t -> string
(** One-line description, parseable by {!parse_spec}: lossless, so
    [parse_spec (render t) = Ok t]. *)
