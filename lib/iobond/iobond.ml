open Bm_engine
open Bm_hw
open Bm_virtio

(* An attached device as the reset path sees it: replay the virtio
   status dance, then resynchronise its bridged queues. *)
type port = { reprobe : unit -> (unit, string) result; resyncs : (unit -> unit) list }

type t = {
  sim : Sim.t;
  profile : Profile.t;
  base_link : Pcie.t;
  net_link : Pcie.t;
  blk_link : Pcie.t;
  dma : Dma.t;
  mailbox : Mailbox.t;
  obs : Obs.t;
  fault : Fault.t;
  mutable ports : port list; (* reversed attach order *)
  mutable resets : int;
}

type net_port = {
  net_device : Virtio_net.t;
  net_tx : Packet.t Queue_bridge.t;
  net_rx : Packet.t Queue_bridge.t;
}

type blk_port = { blk_device : Virtio_blk.t; blk_queue : Virtio_blk.req Queue_bridge.t }

(* A firmware wedge ends in a device reset: once the wedge window
   clears (firmware reloaded), every attached virtio device replays the
   standard initialisation dance and its bridges resync from the shadow
   rings, which live in base-server memory and survived the wedge. *)
let handle_wedge t _ev =
  Sim.spawn t.sim (fun () ->
      Fault.block_until_clear t.fault Fault.Firmware_wedge;
      List.iter
        (fun p ->
          (match p.reprobe () with
          | Ok () -> ()
          | Error _ -> Obs.add t.obs "iobond.reset_probe_failures" 1);
          List.iter (fun resync -> resync ()) p.resyncs)
        (List.rev t.ports);
      t.resets <- t.resets + 1;
      Obs.add t.obs "iobond.resets" 1;
      Obs.instant t.obs ~track:"iobond" "reset")

let create ?(obs = Obs.none) ?(fault = Fault.none) sim ~profile ?dma_gbit_s () =
  let register_ns = Profile.register_ns profile in
  let base_link = Pcie.x8 ~obs ~fault sim ~register_ns in
  let gbit_s = Option.value dma_gbit_s ~default:(Profile.dma_gbit_s profile) in
  let t =
    {
      sim;
      profile;
      base_link;
      net_link = Pcie.x4 ~obs ~fault sim ~register_ns;
      blk_link = Pcie.x4 ~obs ~fault sim ~register_ns;
      dma = Dma.create ~obs ~fault sim ~gbit_s ~setup_ns:(Profile.dma_setup_ns profile) ();
      mailbox = Mailbox.create ~obs ~fault sim ~base_link;
      obs;
      fault;
      ports = [];
      resets = 0;
    }
  in
  Fault.subscribe fault Fault.Firmware_wedge (handle_wedge t);
  t

let mailbox t = t.mailbox
let base_link t = t.base_link
let net_link t = t.net_link
let dma t = t.dma

let pci_access_ns t = Profile.pci_emulation_ns t.profile

(* Emulated config access: the guest blocks for both register hops, and
   the access is signalled through the mailbox pair. *)
let on_pci_access t () =
  Mailbox.notify_pci_access t.mailbox;
  Obs.add t.obs "iobond.pci_emulations" 1;
  Obs.begin_span t.obs ~track:"iobond.cfg" "pci_emulation";
  Sim.delay (pci_access_ns t);
  Obs.end_span t.obs ~track:"iobond.cfg" "pci_emulation"

let attach_net t ?queue_size () =
  let device = Virtio_net.create ~obs:t.obs ?queue_size ~on_access:(on_pci_access t) () in
  let bridge name guest =
    Queue_bridge.create ~obs:t.obs ~fault:t.fault t.sim ~name ~guest ~dma:t.dma
      ~guest_link:t.net_link ~base_link:t.base_link ~mailbox:t.mailbox
  in
  let net_tx = bridge "net-tx" (Virtio_net.tx_ring device) in
  let net_rx = bridge "net-rx" (Virtio_net.rx_ring device) in
  Virtio_net.set_notify device (fun () -> Queue_bridge.guest_notify net_tx);
  Queue_bridge.set_guest_interrupt net_tx (fun () -> Virtio_net.fire_interrupt device);
  Queue_bridge.set_guest_interrupt net_rx (fun () -> Virtio_net.fire_interrupt device);
  t.ports <-
    {
      reprobe = (fun () -> Virtio_net.probe device);
      resyncs = [ (fun () -> Queue_bridge.resync net_tx); (fun () -> Queue_bridge.resync net_rx) ];
    }
    :: t.ports;
  { net_device = device; net_tx; net_rx }

let attach_blk t () =
  let device = Virtio_blk.create ~obs:t.obs ~on_access:(on_pci_access t) () in
  let blk_queue =
    Queue_bridge.create ~obs:t.obs ~fault:t.fault t.sim ~name:"blk"
      ~guest:(Virtio_blk.ring device) ~dma:t.dma ~guest_link:t.blk_link ~base_link:t.base_link
      ~mailbox:t.mailbox
  in
  Virtio_blk.set_notify device (fun () -> Queue_bridge.guest_notify blk_queue);
  Queue_bridge.set_guest_interrupt blk_queue (fun () -> Virtio_blk.fire_interrupt device);
  t.ports <-
    {
      reprobe = (fun () -> Virtio_blk.probe device);
      resyncs = [ (fun () -> Queue_bridge.resync blk_queue) ];
    }
    :: t.ports;
  { blk_device = device; blk_queue }

let resets t = t.resets
