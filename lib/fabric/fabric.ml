module Topology = Topology
open Bm_engine
module Packet = Bm_virtio.Packet

(* A burst in flight carries its route rather than a list of links:
   endpoints, ToRs, ECMP spine ([-1] when both hosts share a ToR) and
   the index of the hop it is queued on or crossing. *)
type job = {
  pkt : Packet.t;
  src_host : int;
  dst_host : int;
  src_tor : int;
  dst_tor : int;
  spine : int;
  mutable hop : int;
  deliver : Packet.t -> unit;
  on_drop : (Packet.t -> unit) option;
}

(* One float field: stored flat, so adding to it never allocates. *)
type busy = { mutable ns : float }

type link = {
  name : string;
  params : Topology.link_params;
  queue : job Sim.Bounded.bounded;
  depth : Stats.Histogram.t;  (* enqueue-time queue depth *)
  track : string;  (* trace track, and the metric names below: built once *)
  m_dropped : string;
  m_depth : string;
  m_bytes : string;
  mutable up : bool;  (* a down link drops everything offered to it *)
  busy : busy;  (* time spent serializing bursts *)
  mutable delivered_pkts : int;
  mutable dropped_pkts : int;
  mutable delivered_bytes : int;
  (* The burst being serialized, and the bursts propagating: a FIFO,
     since one latency per link makes bursts arrive in send order.
     Vacated cells hold [idle_job], so nothing that left is retained. *)
  mutable wire : job;
  mutable flight : job array;
  mutable flight_head : int;
  mutable flight_len : int;
  (* The server's three callbacks, built once by [create]. *)
  mutable on_recv : job -> unit;
  mutable on_wire_done : unit -> unit;
  mutable on_arrival : unit -> unit;
}

type t = {
  sim : Sim.t;
  topo : Topology.t;
  seed : int64;  (* ECMP hash salt, drawn once at create *)
  host_up : link array;  (* host h -> tor_of h *)
  host_down : link array;  (* tor_of h -> host h *)
  tor_up : link array array;  (* tor_up.(tor).(spine) *)
  spine_down : link array array;  (* spine_down.(spine).(tor) *)
  created_at : float;
  mutable attached : int;
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  obs : Obs.t;
}

let idle_job =
  {
    pkt = Packet.make ~id:0 ~src:0 ~dst:0 ~size:1 ~protocol:Packet.Udp ~sent_at:0.0 ();
    src_host = 0;
    dst_host = 0;
    src_tor = 0;
    dst_tor = 0;
    spine = -1;
    hop = 0;
    deliver = ignore;
    on_drop = None;
  }

let topology t = t.topo
let injected t = t.injected
let delivered t = t.delivered
let dropped t = t.dropped

let all_links t =
  Array.to_list t.host_up @ Array.to_list t.host_down
  @ List.concat_map Array.to_list (Array.to_list t.tor_up)
  @ List.concat_map Array.to_list (Array.to_list t.spine_down)

let serialize_ns (p : Topology.link_params) bytes = float_of_int bytes *. 8.0 /. p.gbit_s

(* The link a job crosses at [hop]: the uplink, then (cross-ToR) the
   ToR's and the spine's links, then the destination's downlink. *)
let hop_link t job hop =
  match hop with
  | 0 -> t.host_up.(job.src_host)
  | 1 when job.spine >= 0 -> t.tor_up.(job.src_tor).(job.spine)
  | 2 -> t.spine_down.(job.spine).(job.dst_tor)
  | _ -> t.host_down.(job.dst_host)

let last_hop job = if job.spine < 0 then 1 else 3

let flight_push link job =
  let cap = Array.length link.flight in
  if link.flight_len = cap then begin
    let flight' = Array.make (max 2 (2 * cap)) idle_job in
    for k = 0 to link.flight_len - 1 do
      flight'.(k) <- link.flight.((link.flight_head + k) land (cap - 1))
    done;
    link.flight <- flight';
    link.flight_head <- 0
  end;
  link.flight.((link.flight_head + link.flight_len) land (Array.length link.flight - 1)) <- job;
  link.flight_len <- link.flight_len + 1

let flight_pop link =
  let i = link.flight_head in
  let job = link.flight.(i) in
  link.flight.(i) <- idle_job;
  link.flight_head <- (i + 1) land (Array.length link.flight - 1);
  link.flight_len <- link.flight_len - 1;
  job

let drop_at fab link job =
  let count = job.pkt.count in
  link.dropped_pkts <- link.dropped_pkts + count;
  fab.dropped <- fab.dropped + count;
  Obs.add fab.obs link.m_dropped 1;
  Obs.add fab.obs "fabric.dropped" count;
  Obs.instant fab.obs ~track:link.track "drop";
  match job.on_drop with None -> () | Some f -> f job.pkt

(* Hand a job to a link's egress queue. Drop_tail send never blocks, so
   this is safe from both process and scheduler context; a full queue —
   or a failed link — drops the arriving burst right here (counted,
   traced, reported). *)
let offer fab link job =
  if not link.up then drop_at fab link job
  else
    match Sim.Bounded.send link.queue job with
    | `Sent ->
      let depth = Sim.Bounded.length link.queue in
      Stats.Histogram.add link.depth (float_of_int depth);
      Obs.depth fab.obs ~track:link.track ~histogram:link.m_depth depth
    | `Dropped -> drop_at fab link job
    | `Rejected -> assert false (* Drop_tail never rejects *)

let arrive fab job =
  if job.hop = last_hop job then begin
    fab.delivered <- fab.delivered + job.pkt.count;
    Obs.add fab.obs "fabric.delivered" job.pkt.count;
    job.deliver job.pkt
  end
  else begin
    job.hop <- job.hop + 1;
    offer fab (hop_link fab job job.hop) job
  end

(* Each link is a server made of three callbacks, built once: receive
   the head burst and hold the line for its serialization time; when
   the wire is done, let propagation run concurrently with the next
   burst's serialization (store-and-forward pipelining); on arrival,
   forward the oldest propagating burst. The chain schedules the events
   a recv-and-delay fiber would, on the same (time, seq) keys, and a
   hop allocates no closure: the burst waits in the link's own fields. *)
let start_link fab link =
  let sim = fab.sim in
  link.on_recv <-
    (fun job ->
      link.wire <- job;
      Sim.schedule sim ~delay:(serialize_ns link.params job.pkt.size) link.on_wire_done);
  link.on_wire_done <-
    (fun () ->
      let job = link.wire in
      link.wire <- idle_job;
      link.busy.ns <- link.busy.ns +. serialize_ns link.params job.pkt.size;
      link.delivered_pkts <- link.delivered_pkts + job.pkt.count;
      link.delivered_bytes <- link.delivered_bytes + job.pkt.size;
      Obs.mark fab.obs ~n:job.pkt.size link.m_bytes;
      flight_push link job;
      Sim.schedule sim ~delay:link.params.latency_ns link.on_arrival;
      Sim.Bounded.recv_callback sim link.queue link.on_recv);
  link.on_arrival <- (fun () -> arrive fab (flight_pop link));
  Sim.schedule sim ~delay:0.0 (fun () -> Sim.Bounded.recv_callback sim link.queue link.on_recv)

let mk_link name params =
  {
    name;
    params;
    queue =
      Sim.Bounded.create ~capacity:params.Topology.queue_capacity
        ~policy:Sim.Bounded.Drop_tail ();
    depth = Stats.Histogram.create ~lo:1.0 ~hi:1e4 ();
    track = "fabric." ^ name;
    m_dropped = "fabric.link." ^ name ^ ".dropped";
    m_depth = "fabric.link." ^ name ^ ".depth";
    m_bytes = "fabric.link." ^ name ^ ".bytes";
    up = true;
    busy = { ns = 0.0 };
    delivered_pkts = 0;
    dropped_pkts = 0;
    delivered_bytes = 0;
    wire = idle_job;
    flight = [||];
    flight_head = 0;
    flight_len = 0;
    on_recv = ignore;
    on_wire_done = ignore;
    on_arrival = ignore;
  }

let create ?(obs = Obs.none) sim rng (topo : Topology.t) =
  let host_up =
    Array.init topo.hosts (fun h ->
        mk_link
          (Printf.sprintf "host%d->tor%d" h (Topology.tor_of topo ~host:h))
          topo.host_link)
  in
  let host_down =
    Array.init topo.hosts (fun h ->
        mk_link
          (Printf.sprintf "tor%d->host%d" (Topology.tor_of topo ~host:h) h)
          topo.host_link)
  in
  let tor_up =
    Array.init topo.tors (fun tr ->
        Array.init topo.spines (fun s ->
            mk_link (Printf.sprintf "tor%d->spine%d" tr s) topo.spine_link))
  in
  let spine_down =
    Array.init topo.spines (fun s ->
        Array.init topo.tors (fun tr ->
            mk_link (Printf.sprintf "spine%d->tor%d" s tr) topo.spine_link))
  in
  let t =
    {
      sim;
      topo;
      seed = Rng.bits64 rng;
      host_up;
      host_down;
      tor_up;
      spine_down;
      created_at = Sim.now sim;
      attached = 0;
      injected = 0;
      delivered = 0;
      dropped = 0;
      obs;
    }
  in
  List.iter (start_link t) (all_links t);
  t

(* --- link failure and repair --------------------------------------- *)

let link_names t = List.map (fun l -> l.name) (all_links t)

let find_link t name =
  match List.find_opt (fun l -> l.name = name) (all_links t) with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Fabric: unknown link %S" name)

let set_link t name up =
  let l = find_link t name in
  if l.up <> up then begin
    l.up <- up;
    Obs.add t.obs ("fabric.link." ^ name ^ if up then ".repaired" else ".failed") 1;
    Obs.instant t.obs ~track:l.track (if up then "repair" else "fail")
  end

let fail_link t ~name = set_link t name false
let repair_link t ~name = set_link t name true
let link_up t ~name = (find_link t name).up
let links_down t = List.length (List.filter (fun l -> not l.up) (all_links t))

let attach t =
  if t.attached >= t.topo.hosts then
    invalid_arg
      (Printf.sprintf "Fabric.attach: all %d hosts of the topology are taken" t.topo.hosts);
  let h = t.attached in
  t.attached <- t.attached + 1;
  h

(* SplitMix64 finalizer, applied as a hash: equal flow tuples map to
   equal spines for a given salt, so a flow never reorders across
   paths while distinct flows spread over the spine tier. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let protocol_int = function Packet.Udp -> 0 | Packet.Tcp -> 1 | Packet.Icmp -> 2

(* Feeds src, dst, protocol and tag through [mix64] in one straight-line
   body, so no Int64 intermediate is boxed. *)
let ecmp_spine t (pkt : Packet.t) =
  let h = mix64 (Int64.add t.seed (Int64.of_int pkt.src)) in
  let h = mix64 (Int64.add h (Int64.of_int pkt.dst)) in
  let h = mix64 (Int64.add h (Int64.of_int (protocol_int pkt.protocol))) in
  let h = mix64 (Int64.add h (Int64.of_int pkt.tag)) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int t.topo.spines))

let check_host t what h =
  if h < 0 || h >= t.topo.hosts then
    invalid_arg (Printf.sprintf "Fabric: %s host %d out of range [0, %d)" what h t.topo.hosts)

let route t ~src_host ~dst_host ?on_drop ~deliver pkt =
  check_host t "source" src_host;
  check_host t "destination" dst_host;
  let src_tor = Topology.tor_of t.topo ~host:src_host
  and dst_tor = Topology.tor_of t.topo ~host:dst_host in
  let spine = if src_tor = dst_tor then -1 else ecmp_spine t pkt in
  { pkt; src_host; dst_host; src_tor; dst_tor; spine; hop = 0; deliver; on_drop }

let path_names t ~src_host ~dst_host pkt =
  let job = route t ~src_host ~dst_host ~deliver:ignore pkt in
  List.init (last_hop job + 1) (fun hop -> (hop_link t job hop).name)

let send t ~src_host ~dst_host ?on_drop ~deliver (pkt : Packet.t) =
  if src_host = dst_host then begin
    check_host t "source" src_host;
    deliver pkt
  end
  else begin
    let job = route t ~src_host ~dst_host ?on_drop ~deliver pkt in
    t.injected <- t.injected + pkt.count;
    Obs.add t.obs "fabric.injected" pkt.count;
    offer t (hop_link t job 0) job
  end

let path_latency_ns t ~src_host ~dst_host ~bytes =
  check_host t "source" src_host;
  check_host t "destination" dst_host;
  if src_host = dst_host then 0.0
  else begin
    let per (p : Topology.link_params) = serialize_ns p bytes +. p.latency_ns in
    let ts = Topology.tor_of t.topo ~host:src_host
    and td = Topology.tor_of t.topo ~host:dst_host in
    if ts = td then 2.0 *. per t.topo.host_link
    else (2.0 *. per t.topo.host_link) +. (2.0 *. per t.topo.spine_link)
  end

let path_capacity_gbit_s t ~src_host ~dst_host =
  check_host t "source" src_host;
  check_host t "destination" dst_host;
  if src_host = dst_host then infinity
  else begin
    let ts = Topology.tor_of t.topo ~host:src_host
    and td = Topology.tor_of t.topo ~host:dst_host in
    if ts = td then t.topo.host_link.gbit_s
    else Float.min t.topo.host_link.gbit_s t.topo.spine_link.gbit_s
  end

type link_stat = {
  name : string;
  gbit_s : float;
  utilization : float;
  depth_p99 : float;
  sent_bursts : int;
  delivered_bursts : int;
  dropped_bursts : int;
  delivered_pkts : int;
  dropped_pkts : int;
  queued : int;
}

let link_stat ~elapsed (l : link) =
  {
    name = l.name;
    gbit_s = l.params.gbit_s;
    utilization = (if elapsed > 0.0 then l.busy.ns /. elapsed else 0.0);
    depth_p99 =
      (if Stats.Histogram.count l.depth > 0 then Stats.Histogram.percentile l.depth 99.0
       else 0.0);
    sent_bursts = Sim.Bounded.sent l.queue;
    delivered_bursts = Sim.Bounded.delivered l.queue;
    dropped_bursts = Sim.Bounded.dropped l.queue;
    delivered_pkts = l.delivered_pkts;
    dropped_pkts = l.dropped_pkts;
    queued = Sim.Bounded.length l.queue;
  }

let link_stats t ~now =
  let elapsed = now -. t.created_at in
  List.map (link_stat ~elapsed) (all_links t)

type pressure = {
  link : string;
  spine : bool;
  queued_bursts : int;
  dropped_pkts_total : int;
}

(* The cheap congestion signal a closed-loop policy polls every SLO
   window: current queue depth and the cumulative drop counter per
   link, in the fixed link_stats order. Unlike link_stats this scans no
   histograms, so sampling it every window costs a list walk. *)
let queue_pressure t =
  let of_link ~spine (l : link) =
    {
      link = l.name;
      spine;
      queued_bursts = Sim.Bounded.length l.queue;
      dropped_pkts_total = l.dropped_pkts;
    }
  in
  let host = List.map (of_link ~spine:false) in
  let spine = List.map (of_link ~spine:true) in
  host (Array.to_list t.host_up)
  @ host (Array.to_list t.host_down)
  @ spine (List.concat_map Array.to_list (Array.to_list t.tor_up))
  @ spine (List.concat_map Array.to_list (Array.to_list t.spine_down))
