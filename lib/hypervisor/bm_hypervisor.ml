open Bm_engine
open Bm_hw
open Bm_virtio
open Bm_iobond
open Bm_cloud
open Bm_guest

type params = {
  pmd_pkt_ns : float; (* backend per-packet service cost on base cores *)
  pmd_blk_ns : float; (* backend per-block-request service cost *)
  bm_cpu_bonus : float;
      (* §4.2: bm boards measured ~4% faster than the reference physical
         server (different manufacturer/configuration) *)
}

let params = { pmd_pkt_ns = 220.0; pmd_blk_ns = 1_800.0; bm_cpu_bonus = 0.04 }

type guest_state = {
  board : Board.t;
  offload : Offload.t option;
  set_paused : bool -> unit; (* pause/resume every queue bridge, in order *)
  mutable backend_version : int;
}

type server = {
  sim : Sim.t;
  profile : Profile.t;
  base_cores : Cores.t;
  board_pool : Board.t array;
  obs : Obs.t;
  backend : Backend.t;
  mutable guests : (string * guest_state) list;
}

let create_server ?(obs = Obs.none) ?(fault = Fault.none) sim _rng ~fabric ~storage
    ?(profile = Profile.Fpga) ?(board_spec = Cpu_spec.xeon_e5_2682_v4)
    ?(boards = 8) ?dma_gbit_s ?(vfs = 8) () =
  if boards < 1 || boards > 16 then invalid_arg "Bm_hypervisor: 1..16 boards per server (§3.3)";
  let base_cores = Cores.create sim ~spec:Cpu_spec.base_server_e5 () in
  let board_pool =
    Array.init boards (fun _ -> Board.create ~obs ~fault sim ~spec:board_spec ~profile ?dma_gbit_s ())
  in
  (* The per-guest backend processes are ordinary user-space processes
     polling the shadow vrings; the SR-IOV pool is a slice of the same
     IO-Bond part. *)
  let backend =
    Backend.create ~obs ~fault sim ~fabric ~cores:base_cores ~storage ~track:"hyp.bm"
      ~process:"pmd" ~vf_profile:profile ~vfs
  in
  { sim; profile; base_cores; board_pool; obs; backend; guests = [] }

let vswitch t = Backend.vswitch t.backend
let base_cores t = t.base_cores

let free_boards t =
  Array.fold_left (fun acc b -> if Board.power b = Board.Off then acc + 1 else acc) 0 t.board_pool

let provision t ~name ?(net_limits = Limits.cloud_net ()) ?(blk_limits = Limits.cloud_blk ())
    ?(offload = false) ?(datapath = Vf.Vring) () =
  if List.mem_assoc name t.guests then Error (name ^ " already provisioned")
  else
    match Array.find_opt (fun b -> Board.power b = Board.Off) t.board_pool with
    | None -> Error "no free compute board"
    | Some board ->
      Board.power_on board;
      let p = params and os = Guest_os.default and cores = Board.cores board in
      let iobond = Board.iobond board in
      let net_port = Iobond.attach_net iobond ~queue_size:Backend.net_queue_size () in
      let blk_port = Iobond.attach_blk iobond () in
      let net_tx = net_port.Iobond.net_tx and net_rx = net_port.Iobond.net_rx in
      let blk_q = blk_port.Iobond.blk_queue in
      let offload_table = if offload then Some (Offload.create ()) else None in
      (* Guest interrupts are genuine MSIs, no exits. A doorbell to
         IO-Bond is an uncached MMIO store to the FPGA BAR: ~300 ns of
         CPU stall per kick (a vm kick is a plain store into shared
         memory). *)
      let g =
        Backend.guest t.backend ~name ~net:net_port.Iobond.net_device
          ~blk:blk_port.Iobond.blk_device ~cores ~os ~io_factor:1.0 ~doorbell_ns:300.0
          ~irq:(fun k -> Sim.schedule t.sim ~delay:os.Guest_os.irq_entry_ns k)
          ~net_limits ~blk_limits
          ~refilled:(fun () -> Queue_bridge.guest_notify net_rx)
      in
      Backend.attach_vf g datapath;
      (* The PMD pops each shadow ring and completes into it itself. *)
      let drain q process =
        Queue_bridge.set_work_hint q
          (Backend.drain g
             ~pending:(fun () -> Queue_bridge.pending q)
             ~pop:(fun () -> Queue_bridge.pop q)
             process)
      in
      let pmd_ns n k = Cores.execute_ns_callback t.base_cores (p.pmd_pkt_ns *. float_of_int n) k in
      (* One tx request: an offloaded flow never touches the base cores —
         the FPGA pipeline forwards it into the fabric (S6). *)
      drain net_tx (fun req ->
          let pkt = req.Queue_bridge.payload in
          let complete k =
            Queue_bridge.complete net_tx req ~written:0 ();
            Queue_bridge.flush net_tx k
          in
          match Option.map (fun ot -> (ot, Offload.classify ot pkt)) offload_table with
          | Some (_, `Offloaded) ->
            Obs.add t.obs "hyp.bm.offload_hits" 1;
            Sim.schedule t.sim
              ~delay:(Offload.fpga_forward_ns *. float_of_int pkt.Packet.count)
              (fun () -> complete (fun () -> Vswitch.forward_hw (vswitch t) pkt))
          | slow ->
            if Option.is_some slow then
              Obs.add t.obs "hyp.bm.offload_misses" 1;
            Obs.mark t.obs ~n:pkt.Packet.count "hyp.bm.pmd_pkts";
            pmd_ns pkt.Packet.count (fun () ->
                Option.iter (fun (ot, _) -> Offload.install ot pkt) slow;
                complete (fun () -> Vswitch.send_callback (vswitch t) pkt ignore)));
      Backend.listen g (fun pkt ->
          pmd_ns pkt.Packet.count (fun () ->
              match Queue_bridge.pop net_rx with
              | Some req ->
                Queue_bridge.complete net_rx req ~payload:pkt ~written:pkt.Packet.size ();
                Queue_bridge.flush net_rx ignore
              | None -> Backend.rx_drop g pkt));
      (* Blk backend: SPDK-style, one in-flight task per request. *)
      drain blk_q (fun req ->
          let vreq = req.Queue_bridge.payload in
          Obs.begin_span t.obs ~track:"hyp.bm" "blk_request";
          Cores.execute_ns_callback t.base_cores p.pmd_blk_ns (fun () ->
              Backend.serve g vreq (fun () ->
                  Obs.end_span t.obs ~track:"hyp.bm" "blk_request";
                  let written =
                    match vreq.Virtio_blk.op with
                    | Virtio_blk.Read -> vreq.Virtio_blk.bytes + 1
                    | Virtio_blk.Write | Virtio_blk.Flush -> 1
                  in
                  Queue_bridge.complete blk_q req ~written ();
                  Queue_bridge.flush blk_q ignore)));
      (* Native execution, with the paper's ~4% board bonus, and native
         single-level page walks — no EPT on bare metal. *)
      let cpu_factor = 1.0 /. (1.0 +. p.bm_cpu_bonus) in
      let tlb = Tlb.create () in
      let instance =
        Backend.instance g ~kind:(Instance.Bare_metal t.profile) ~spec:(Board.spec board)
          ~memory:(Board.memory board)
          ~exec_ns:(fun natural -> Cores.execute_ns cores (natural *. cpu_factor))
          ~exec_mem_ns:(fun ~working_set ~locality natural ->
            let factor = Ept.dilation_factor tlb ~virtualized:false ~working_set ~locality in
            Cores.execute_ns cores (natural *. cpu_factor *. factor))
          ~pause:ignore
          ~ipi:(fun () -> Cores.execute_ns cores 1_000.0)
          ~timer_arm:(fun () -> Cores.execute_ns cores 100.0)
      in
      let set_paused paused =
        let set q = if paused then Queue_bridge.pause q else Queue_bridge.resume q in
        set net_tx;
        set net_rx;
        set blk_q
      in
      t.guests <-
        (name, { board; offload = offload_table; set_paused; backend_version = 1 }) :: t.guests;
      (* Post the initial rx buffers and mirror them into the shadow ring. *)
      Backend.post_rx g;
      Ok instance

let guest_board t ~name = Option.map (fun s -> s.board) (List.assoc_opt name t.guests)
let rx_no_buffer_drops t ~name = Backend.rx_drops t.backend ~name

let offload_table t ~name = Option.bind (List.assoc_opt name t.guests) (fun s -> s.offload)

let backend_version t ~name =
  Option.fold ~none:0 ~some:(fun s -> s.backend_version) (List.assoc_opt name t.guests)

let pmd_alive t = Backend.alive t.backend
let pmd_crashes t = Backend.crashes t.backend

(* The blackout while the new process maps the rings. *)
let handover_ns = 200_000.0

(* Orthus-style live upgrade (§6): the bm-hypervisor is an ordinary
   user-space process per guest and all queue state lives in the shared
   shadow vrings, so upgrading is: pause the bridges, let the new
   process map the rings (the handover blackout), bump the version,
   resume. Requests issued during the blackout accumulate in the shadow
   rings and are drained on resume; the guest never notices beyond a
   latency blip. Must be called from a simulation process. *)
let live_upgrade t ~name =
  match List.assoc_opt name t.guests with
  | None -> Error (name ^ " not provisioned")
  | Some state ->
    Obs.begin_span t.obs ~track:"hyp.bm" "live_upgrade";
    state.set_paused true;
    Sim.delay handover_ns;
    state.backend_version <- state.backend_version + 1;
    state.set_paused false;
    Obs.end_span t.obs ~track:"hyp.bm" "live_upgrade";
    Obs.add t.obs "hyp.bm.live_upgrades" 1;
    Ok state.backend_version
