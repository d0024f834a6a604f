open Bm_engine
open Bm_hw
open Bm_virtio

type endpoint = { deliver : Packet.t -> unit; mutable inflight : int }

type t = {
  sim : Sim.t;
  fabric : fabric;
  cores : Cores.t;
  host : int option; (* fabric port when the network is modelled *)
  local : (int, endpoint) Hashtbl.t;
  mutable forwarded : int;
  mutable dropped : int;
  mutable unknown_dropped : int;
  mutable egress_dropped : int;
  mutable queued : int; (* bursts in flight between schedule and delivery *)
  obs : Obs.t;
}

and fabric = {
  net : Bm_fabric.Fabric.t option; (* explicit link-level network model *)
  routes : (int, t) Hashtbl.t; (* endpoint -> owning switch *)
  mutable next_endpoint : int;
}

(* The flat wire between servers: 100 Gbit/s NICs (§3.4.3) and 10 µs
   one-way latency. *)
let nic_gbit_s = 100.0
let rtt_ns = 10_000.0

let create_fabric ?net () =
  {
    net;
    routes = Hashtbl.create 64;
    next_endpoint = 1;
  }

(* The vswitch's service cost of one packet: a DPDK-class forwarding
   cost. *)
let per_packet_ns = 300.0

(* Queueing/traversal latency of one switch hop. *)
let hop_ns = 5_000.0

(* Bursts one destination's egress queue holds. *)
let egress_capacity = 256

let create ?(obs = Obs.none) sim ~fabric ~cores () =
  (* With a link-level network, each vswitch claims the next topology
     port in creation order — deterministic, like endpoint addresses. *)
  let host = Option.map Bm_fabric.Fabric.attach fabric.net in
  {
    sim;
    fabric;
    cores;
    host;
    local = Hashtbl.create 16;
    forwarded = 0;
    dropped = 0;
    unknown_dropped = 0;
    egress_dropped = 0;
    queued = 0;
    obs;
  }

let note_queue_depth t =
  Obs.counter t.obs ~track:"cloud.vswitch" "queue_depth" t.queued

(* Unknown destination: the MAC resolves to no local endpoint and no
   peer switch. It is counted under [unknown_dst_dropped] and announced
   on the trace — a silently black-holed address is the kind of
   misconfiguration the observability layer exists to surface. *)
let note_unknown_drop t (pkt : Packet.t) =
  t.dropped <- t.dropped + pkt.Packet.count;
  Obs.add t.obs "cloud.vswitch.dropped" pkt.Packet.count;
  t.unknown_dropped <- t.unknown_dropped + pkt.Packet.count;
  Obs.add t.obs "cloud.vswitch.unknown_dst_dropped" pkt.Packet.count;
  Obs.instant t.obs ~track:"cloud.vswitch" "unknown_dst"

let note_egress_drop t (pkt : Packet.t) =
  t.dropped <- t.dropped + pkt.Packet.count;
  t.egress_dropped <- t.egress_dropped + pkt.Packet.count;
  Obs.add t.obs "cloud.vswitch.egress_dropped" pkt.Packet.count

let register t ~deliver =
  let addr = t.fabric.next_endpoint in
  t.fabric.next_endpoint <- addr + 1;
  Hashtbl.replace t.local addr { deliver; inflight = 0 };
  Hashtbl.replace t.fabric.routes addr t;
  addr

let switch_cpu t (pkt : Packet.t) k =
  Cores.execute_ns_callback t.cores (per_packet_ns *. float_of_int pkt.Packet.count) k

(* Local delivery is asynchronous: the burst sits in the destination's
   egress queue for [hop_ns] and the handler runs decoupled from the
   sender's process. The per-destination queue is bounded (drop-tail).
   Endpoints are never detached, so the one found at send time is the
   one delivered to. *)
let deliver_local t pkt =
  match Hashtbl.find_opt t.local pkt.Packet.dst with
  | Some ep when ep.inflight >= egress_capacity -> note_egress_drop t pkt
  | Some ep ->
    t.forwarded <- t.forwarded + pkt.Packet.count;
    ep.inflight <- ep.inflight + 1;
    t.queued <- t.queued + 1;
    Obs.mark t.obs ~n:pkt.Packet.count "cloud.vswitch.pps";
    note_queue_depth t;
    Sim.schedule t.sim ~delay:hop_ns (fun () ->
        ep.inflight <- ep.inflight - 1;
        t.queued <- t.queued - 1;
        note_queue_depth t;
        ep.deliver pkt)
  | None -> note_unknown_drop t pkt

(* Cross-server egress. When the fabric carries a link-level network
   model and both switches are attached to it, the burst rides the
   topology: serialization happens at the source host's uplink (so the
   sending process is not stalled here) and the peer's forwarding cost
   is charged on arrival. Otherwise the legacy flat-wire model applies:
   NIC serialisation in the sender's process, one fixed RTT, done. *)
let egress_fabric t peer ~charge_peer_cpu pkt =
  match (t.fabric.net, t.host, peer.host) with
  | Some net, Some src_host, Some dst_host when src_host <> dst_host ->
    Bm_fabric.Fabric.send net ~src_host ~dst_host pkt ~deliver:(fun pkt ->
        Sim.schedule peer.sim ~delay:0.0 (fun () ->
            if charge_peer_cpu then switch_cpu peer pkt (fun () -> deliver_local peer pkt)
            else deliver_local peer pkt));
    true
  | _ -> false

let send_callback t pkt k =
  switch_cpu t pkt (fun () ->
      if Hashtbl.mem t.local pkt.Packet.dst then begin
        deliver_local t pkt;
        k ()
      end
      else
        match Hashtbl.find_opt t.fabric.routes pkt.Packet.dst with
        | None ->
          note_unknown_drop t pkt;
          k ()
        | Some peer ->
          if egress_fabric t peer ~charge_peer_cpu:true pkt then k ()
          else begin
            (* NIC serialisation + propagation, then the peer switch's
               own forwarding cost in a chain of its own. *)
            let wire_ns = float_of_int pkt.Packet.size *. 8.0 /. nic_gbit_s in
            Sim.schedule t.sim ~delay:wire_ns (fun () ->
                Sim.schedule t.sim ~delay:rtt_ns (fun () ->
                    Sim.schedule peer.sim ~delay:0.0 (fun () ->
                        switch_cpu peer pkt (fun () -> deliver_local peer pkt)));
                k ())
          end)

let send t pkt = Sim.await (send_callback t pkt)

(* Hardware-switched injection (an offload engine forwarding on behalf
   of a guest): same delivery semantics, no switch CPU charged. *)
let forward_hw t pkt =
  if Hashtbl.mem t.local pkt.Packet.dst then deliver_local t pkt
  else
    match Hashtbl.find_opt t.fabric.routes pkt.Packet.dst with
    | None -> note_unknown_drop t pkt
    | Some peer ->
      if not (egress_fabric t peer ~charge_peer_cpu:false pkt) then begin
        let wire_ns = float_of_int pkt.Packet.size *. 8.0 /. nic_gbit_s in
        Sim.schedule t.sim ~delay:(wire_ns +. rtt_ns) (fun () ->
            Sim.schedule peer.sim ~delay:0.0 (fun () -> deliver_local peer pkt))
      end

let forwarded t = t.forwarded
let dropped t = t.dropped
let unknown_dropped t = t.unknown_dropped
let egress_dropped t = t.egress_dropped
