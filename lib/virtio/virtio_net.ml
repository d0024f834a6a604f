open Bm_engine

let header_bytes = 12
let rx_buf_bytes = 1536

(* Placeholder payload for posted rx buffers; replaced by the device via
   [Vring.set_payload] before completion. *)
let dummy_packet = Packet.make ~id:(-1) ~src:(-1) ~dst:(-1) ~size:1 ~protocol:Packet.Udp ~sent_at:0.0 ()

type t = {
  pci : Virtio_pci.t;
  tx : Packet.t Vring.t;
  rx : Packet.t Vring.t;
  mutable notify_tx : unit -> unit;
  mutable interrupt : unit -> unit;
  mutable tx_sent : int;
  mutable rx_received : int;
  mutable tx_dropped : int;
  obs : Obs.t;
}

let create ?(obs = Obs.none) ?(queue_size = 256) ~on_access () =
  let tx = Vring.create ~size:queue_size in
  let rx = Vring.create ~size:queue_size in
  Vring.set_obs tx ~track:"virtio.net.tx" obs;
  Vring.set_obs rx ~track:"virtio.net.rx" obs;
  {
    pci = Virtio_pci.create ~kind:Virtio_pci.Net ~num_queues:2 ~queue_size ~on_access;
    tx;
    rx;
    notify_tx = ignore;
    interrupt = ignore;
    tx_sent = 0;
    rx_received = 0;
    tx_dropped = 0;
    obs;
  }

let pci t = t.pci
let tx_ring t = t.tx
let rx_ring t = t.rx

let set_notify t f = t.notify_tx <- f

let set_interrupt t f = t.interrupt <- f
let fire_interrupt t = t.interrupt ()

let probe t =
  match Virtio_pci.probe t.pci ~driver_features:Feature.default_net with
  | Ok (_features, _queues, _size) -> Ok ()
  | Error e -> Error e

let xmit t pkt =
  match Vring.add t.tx ~out:[ header_bytes; pkt.Packet.size ] ~in_:[] pkt with
  | Some _head ->
    t.tx_sent <- t.tx_sent + 1;
    Obs.instant t.obs ~track:"virtio.net.tx" "kick";
    t.notify_tx ();
    true
  | None ->
    t.tx_dropped <- t.tx_dropped + 1;
    Obs.add t.obs "virtio.net.tx_dropped" 1;
    false

let refill_rx t ~target =
  let rec go added =
    (* Buffers usable by the device = outstanding minus completed-unreaped. *)
    if Vring.in_flight_requests t.rx - Vring.used_pending t.rx >= target then added
    else
      match Vring.add t.rx ~out:[] ~in_:[ header_bytes; rx_buf_bytes ] dummy_packet with
      | Some _ -> go (added + 1)
      | None -> added
  in
  go 0

let reap_tx t =
  let rec go n = match Vring.pop_used t.tx with Some _ -> go (n + 1) | None -> n in
  go 0

let reap_rx t =
  let rec go acc =
    match Vring.pop_used t.rx with
    | Some (pkt, _written) ->
      t.rx_received <- t.rx_received + 1;
      go (pkt :: acc)
    | None -> List.rev acc
  in
  let pkts = go [] in
  (match pkts with [] -> () | _ :: _ -> Obs.mark t.obs ~n:(List.length pkts) "virtio.net.rx_pkts");
  pkts

let tx_dropped t = t.tx_dropped
