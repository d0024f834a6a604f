open Bm_engine
open Bm_hw
open Bm_virtio
open Bm_iobond
open Bm_cloud
open Bm_guest

type t = {
  sim : Sim.t;
  obs : Obs.t;
  fault : Fault.t;
  track : string;
  vswitch : Vswitch.t;
  storage : Blockstore.t;
  vf_profile : Profile.t;
  vf_total : int;
  mutable vf_pool : Vf.dev option; (* created on first VF attachment *)
  mutable alive : bool;
  mutable crashes : int;
  mutable guests : (string * guest) list;
  m_rx_drops : string; (* per-request metric names, built once *)
  m_net_shed : string;
  m_vf_tx_rejects : string;
  m_blk_rejected : string;
  m_blk_shed : string;
}

and guest = {
  b : t;
  name : string;
  net : Virtio_net.t;
  blk : Virtio_blk.t;
  cores : Cores.t;
  os : Guest_os.t;
  io_factor : float;
  doorbell_ns : float;
  irq : (unit -> unit) -> unit;
  net_limits : Limits.net;
  blk_limits : Limits.blk;
  refilled : unit -> unit;
  mutable vf : Vf.vf option;
  mutable endpoint : int;
  mutable poll_mode : bool;
  mutable rx_handler : Packet.t -> unit;
  mutable rx_drops : int;
  mutable rekick : unit -> unit; (* re-arm work hints after a respawn *)
}

(* Net rings sized like a multiqueue device (8 queues x 256). *)
let net_queue_size = 2048
let rx_buffer_target = 1536

(* The rx backlog holds bursts delivered by the vswitch that the backend
   has not yet pumped into guest buffers (drop-tail, like a real NIC
   queue). *)
let rx_backlog_capacity = 512

(* A counter of a rare event (a crash, a pool fallback), its name built
   at the call. *)
let metric b name = Obs.add b.obs (b.track ^ "." ^ name) 1

let create ~obs ~fault sim ~fabric ~cores ~storage ~track ~process ~vf_profile ~vfs =
  if vfs < 1 then invalid_arg "Backend.create: vfs must be >= 1";
  let b =
    {
      sim;
      obs;
      fault;
      track;
      vswitch = Vswitch.create ~obs sim ~fabric ~cores ();
      storage;
      vf_profile;
      vf_total = vfs;
      vf_pool = None;
      alive = true;
      crashes = 0;
      guests = [];
      m_rx_drops = track ^ ".rx_drops";
      m_net_shed = track ^ ".net_shed";
      m_vf_tx_rejects = track ^ ".vf_tx_rejects";
      m_blk_rejected = track ^ ".blk_rejected";
      m_blk_shed = track ^ ".blk_shed";
    }
  in
  (* A crash kills the backend processes; the supervisor respawns them
     after the event's dead-time. Queue state lives in the rings, so the
     respawned processes drain from exactly where their predecessors
     stopped; the rekick replays each guest's work hints. *)
  Fault.subscribe fault Fault.Pmd_crash (fun ev ->
      if b.alive then begin
        b.alive <- false;
        b.crashes <- b.crashes + 1;
        metric b (process ^ "_crashes");
        Obs.instant obs ~track (process ^ "_crash");
        Sim.schedule sim ~delay:ev.Fault.duration_ns (fun () ->
            b.alive <- true;
            metric b (process ^ "_respawns");
            Obs.instant obs ~track (process ^ "_respawn");
            List.iter (fun (_, g) -> g.rekick ()) b.guests)
      end);
  b

let vswitch b = b.vswitch
let alive b = b.alive
let crashes b = b.crashes

(* Backend workers park here while their process is dead; the poll
   period only costs anything during a crash window. *)
let rec when_alive b k =
  if b.alive then k () else Sim.schedule b.sim ~delay:10_000.0 (fun () -> when_alive b k)

(* --- SR-IOV pool --- *)

let vf_device b ~vfs =
  Vf.create_device ~obs:b.obs ~fault:b.fault b.sim ~profile:b.vf_profile ~vfs ()

(* The pool is created on first use, so a host that never hands out a VF
   schedules exactly the events it always did. *)
let vf_pool b =
  match b.vf_pool with
  | Some d -> d
  | None ->
    let d = vf_device b ~vfs:b.vf_total in
    b.vf_pool <- Some d;
    d

(* Passthrough gets a whole device to itself, a slice comes from the
   shared pool; an exhausted pool falls back to the vring path (the
   scheduler's failover), counted, not silent. *)
let attach_vf g datapath =
  let b = g.b in
  let vf =
    match datapath with
    | Vf.Vring -> None
    | Vf.Passthrough -> Result.to_option (Vf.attach (vf_device b ~vfs:1) ~owner:g.name ())
    | Vf.Sliced -> (
      match Vf.attach (vf_pool b) ~owner:g.name () with
      | Ok vf -> Some vf
      | Error _ ->
        metric b "vf_fallbacks";
        None)
  in
  g.vf <- vf

(* --- Guest side --- *)

(* Interrupt context preempts: it does not queue behind saturated
   application threads. A polling guest only pays the pickup. *)
let interrupt g = if g.poll_mode then Sim.delay 500.0 (* PMD poll pickup *) else Sim.await g.irq

let rx_stack g pkt =
  let count = pkt.Packet.count in
  let stack_ns =
    if g.poll_mode then Guest_os.dpdk_rx_ns_of g.os ~count
    else Guest_os.net_rx_ns g.os ~kind:pkt.Packet.protocol ~count
  in
  Cores.execute_ns g.cores (stack_ns *. g.io_factor);
  g.rx_handler pkt

let guest b ~name ~net ~blk ~cores ~os ~io_factor ~doorbell_ns ~irq ~net_limits ~blk_limits
    ~refilled =
  let g =
    {
      b;
      name;
      net;
      blk;
      cores;
      os;
      io_factor;
      doorbell_ns;
      irq;
      net_limits;
      blk_limits;
      refilled;
      vf = None;
      endpoint = 0;
      poll_mode = false;
      rx_handler = ignore;
      rx_drops = 0;
      rekick = ignore;
    }
  in
  (* The net handler stays a process: the rx handlers it runs send, and
     a send blocks. The blk handler only pays the irq and reaps. *)
  Virtio_net.set_interrupt net (fun () ->
      Sim.spawn b.sim (fun () ->
          interrupt g;
          ignore (Virtio_net.reap_tx net);
          let pkts = Virtio_net.reap_rx net in
          if Virtio_net.refill_rx net ~target:rx_buffer_target > 0 then refilled ();
          List.iter (rx_stack g) pkts));
  Virtio_blk.set_interrupt blk (fun () ->
      Sim.schedule b.sim ~delay:0.0 (fun () -> irq (fun () -> ignore (Virtio_blk.reap blk))));
  (* The device glue comes up through the vhost-user control protocol
     before any descriptor moves (§3.4.2). *)
  List.iter
    (fun features ->
      let backend = Vhost_user.create ~backend_features:features () in
      match Vhost_user.standard_handshake backend ~driver_features:features with
      | Ok () -> ()
      | Error e -> failwith ("vhost-user handshake failed: " ^ e))
    [ Feature.default_net; Feature.default_blk ];
  b.guests <- (name, g) :: b.guests;
  g

(* --- Backend side --- *)

let drain g ?(after = ignore) ~pending ~pop process =
  let b = g.b in
  (* Work hints coalesce: capacity 1, a doorbell rung while one is
     pending folds into it (the drain will see the new work anyway). *)
  let hint = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Drop_tail () in
  let kick () = ignore (Sim.Bounded.send hint ()) in
  (* Requests fan out to workers (multiqueue): one chain per request,
     started by a zero-delay event. *)
  let rec drain () =
    match pop () with
    | None -> ()
    | Some r ->
      Sim.schedule b.sim ~delay:0.0 (fun () -> process r);
      drain ()
  in
  let rec loop () =
    Sim.Bounded.recv_callback b.sim hint (fun () ->
        when_alive b (fun () ->
            drain ();
            after ();
            loop ()))
  in
  Sim.schedule b.sim ~delay:0.0 loop;
  let rekick = g.rekick in
  g.rekick <-
    (fun () ->
      rekick ();
      if pending () > 0 then kick ());
  kick

let rx_drop g pkt =
  g.rx_drops <- g.rx_drops + pkt.Packet.count;
  Obs.add g.b.obs g.b.m_rx_drops pkt.Packet.count

let listen g fill =
  let b = g.b in
  let rx_chan = Sim.Bounded.create ~capacity:rx_backlog_capacity ~policy:Sim.Bounded.Drop_tail () in
  Obs.watch_bounded b.obs ~track:(b.track ^ ".rx_backlog") rx_chan;
  g.endpoint <-
    (match g.vf with
    | None -> Vswitch.register b.vswitch ~deliver:(fun pkt -> ignore (Sim.Bounded.send rx_chan pkt))
    | Some vf ->
      (* Direct assignment: the device DMAs into guest buffers and
         interrupts the guest itself — the backend never sees the
         packet. A ring-full or mid-reassignment window is a NIC drop,
         same as a backlog overflow. *)
      let rxq = ref 0 in
      Vswitch.register b.vswitch ~deliver:(fun pkt ->
          let q = !rxq in
          rxq := (q + 1) mod Vf.queues vf;
          let deliver _ =
            Sim.spawn b.sim (fun () ->
                interrupt g;
                rx_stack g pkt)
          in
          match Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver with
          | `Submitted _ -> ()
          | `Rejected -> rx_drop g pkt));
  let rec loop () =
    Sim.Bounded.recv_callback b.sim rx_chan (fun pkt ->
        when_alive b (fun () ->
            Sim.schedule b.sim ~delay:0.0 (fun () -> fill pkt);
            loop ()))
  in
  Sim.schedule b.sim ~delay:0.0 loop

let serve g req k =
  let op =
    match req.Virtio_blk.op with Virtio_blk.Read -> `Read | Write -> `Write | Flush -> `Flush
  in
  Blockstore.serve_callback g.b.storage ~op ~bytes_:req.Virtio_blk.bytes (function
    | `Served -> k ()
    | `Rejected ->
      req.Virtio_blk.failed <- true;
      Obs.add g.b.obs g.b.m_blk_rejected 1;
      k ())

let post_rx g =
  Sim.schedule g.b.sim ~delay:0.0 (fun () ->
      if Virtio_net.refill_rx g.net ~target:rx_buffer_target > 0 then g.refilled ())

(* --- Guest-facing closures --- *)

let net_shed g pkt =
  Obs.add g.b.obs g.b.m_net_shed pkt.Packet.count;
  false

(* On a VF the doorbell rings the device directly: the descriptor
   streams at the VF's arbitrated DMA share and the device forwards it
   into the fabric in hardware — the backend never sees it. *)
let xmit g =
  match g.vf with
  | None -> fun pkt -> Virtio_net.xmit g.net pkt
  | Some vf ->
    let txq = ref 0 in
    fun pkt ->
      let q = !txq in
      txq := (q + 1) mod Vf.queues vf;
      (match
         Vf.submit vf ~queue:q ~bytes_:pkt.Packet.size ~deliver:(fun _ ->
             Vswitch.forward_hw g.b.vswitch pkt)
       with
      | `Submitted _ -> true
      | `Rejected ->
        Obs.add g.b.obs g.b.m_vf_tx_rejects pkt.Packet.count;
        false)

let send g xmit ~stack_ns pkt =
  Cores.execute_ns g.cores ((stack_ns *. g.io_factor) +. g.doorbell_ns);
  if Limits.net_admit g.net_limits ~packets:pkt.Packet.count ~bytes_:pkt.Packet.size then xmit pkt
  else net_shed g pkt

let blk_attempt g ~op ~bytes_ =
  let guest_ns ns = Cores.execute_ns g.cores (ns *. g.io_factor) in
  guest_ns g.os.Guest_os.blk_submit_ns;
  if not (Limits.blk_admit g.blk_limits ~bytes_) then begin
    Obs.add g.b.obs g.b.m_blk_shed 1;
    guest_ns g.os.Guest_os.blk_complete_ns;
    Error `Limited
  end
  else begin
    (* Completion latency (fio's clat): measured after admission. *)
    let t0 = Sim.clock () in
    let op = match op with `Read -> Virtio_blk.Read | `Write -> Write | `Flush -> Flush in
    let req = Virtio_blk.make_req ~op ~sector:0 ~bytes:bytes_ ~now:(Sim.clock ()) in
    if not (Virtio_blk.submit g.blk req) then begin
      Sim.delay 1_000.0;
      guest_ns g.os.Guest_os.blk_complete_ns;
      Error (`Busy (Sim.clock () -. t0))
    end
    else begin
      ignore (Sim.Ivar.read req.Virtio_blk.done_);
      guest_ns g.os.Guest_os.blk_complete_ns;
      let lat = Sim.clock () -. t0 in
      if req.Virtio_blk.failed then Error (`Rejected lat) else Ok lat
    end
  end

let probe g () =
  let ( let* ) = Result.bind in
  let* () = Virtio_net.probe g.net in
  let* () = Virtio_blk.probe g.blk in
  let count pci = Virtio_pci.access_count pci in
  Ok (count (Virtio_net.pci g.net) + count (Virtio_blk.pci g.blk))

let instance g ~kind ~spec ~memory ~exec_ns ~exec_mem_ns ~pause ~ipi ~timer_arm =
  let xmit = xmit g in
  {
    Instance.name = g.name;
    kind;
    spec;
    endpoint = g.endpoint;
    cores = g.cores;
    memory;
    os = g.os;
    exec_ns;
    exec_mem_ns;
    mem_stream = (fun ~bytes_ -> Memory.transfer memory ~bytes_);
    send =
      (fun pkt ->
        send g xmit pkt
          ~stack_ns:(Guest_os.net_tx_ns g.os ~kind:pkt.Packet.protocol ~count:pkt.Packet.count));
    send_dpdk =
      (fun pkt -> send g xmit pkt ~stack_ns:(Guest_os.dpdk_tx_ns_of g.os ~count:pkt.Packet.count));
    set_rx_handler = (fun h -> g.rx_handler <- h);
    blk =
      (fun ~op ~bytes_ ->
        match blk_attempt g ~op ~bytes_ with
        | Ok lat | Error (`Busy lat) | Error (`Rejected lat) -> lat
        | Error `Limited -> 0.0);
    blk_try =
      (fun ~op ~bytes_ ->
        match blk_attempt g ~op ~bytes_ with
        | Ok lat -> Ok lat
        | Error `Limited -> Error `Limited
        | Error (`Busy _) -> Error `Busy
        | Error (`Rejected _) -> Error `Rejected);
    probe = probe g;
    pause;
    ipi;
    set_poll_mode = (fun on -> g.poll_mode <- on);
    timer_arm;
  }

(* --- Lookups --- *)

let rx_drops b ~name =
  Option.fold ~none:0 ~some:(fun g -> g.rx_drops) (List.assoc_opt name b.guests)
