open Bm_engine
open Bm_hw
open Bm_cloud

let create sim ~name ?(spec = Cpu_spec.xeon_e5_2682_v4) ?(sockets = 2) ?vswitch ?storage () =
  let cores = Cores.create sim ~spec ~threads:(sockets * spec.Cpu_spec.threads) () in
  let memory =
    Memory.create sim ~peak_gb_s:(float_of_int sockets *. Cpu_spec.peak_mem_bw_gb_s spec)
  in
  let os = Guest_os.default in
  let tlb = Tlb.create () in
  let rx_handler = ref (fun (_ : Bm_virtio.Packet.t) -> ()) in
  let poll_mode = ref false in
  let endpoint =
    match vswitch with
    | Some vs ->
      Vswitch.register vs ~deliver:(fun pkt ->
          Sim.spawn sim (fun () ->
              let count = pkt.Bm_virtio.Packet.count in
              let cost =
                if !poll_mode then Guest_os.dpdk_rx_ns_of os ~count
                else Guest_os.net_rx_ns os ~kind:pkt.Bm_virtio.Packet.protocol ~count
              in
              Cores.execute_ns cores cost;
              !rx_handler pkt))
    | None -> -1
  in
  let exec_ns natural = Cores.execute_ns cores natural in
  let exec_mem_ns ~working_set ~locality natural =
    (* Native page walks on TLB misses; ~1 memory access per 2 ns of work. *)
    let per_access = Tlb.avg_overhead_ns tlb ~virtualized:false ~working_set_bytes:working_set ~locality in
    Cores.execute_ns cores (natural *. (1.0 +. (per_access /. 2.0)))
  in
  let send pkt =
    match vswitch with
    | None -> false
    | Some vs ->
      Cores.execute_ns cores
        (Guest_os.net_tx_ns os ~kind:pkt.Bm_virtio.Packet.protocol ~count:pkt.Bm_virtio.Packet.count);
      Vswitch.send vs pkt;
      true
  in
  let send_dpdk pkt =
    match vswitch with
    | None -> false
    | Some vs ->
      Cores.execute_ns cores (Guest_os.dpdk_tx_ns_of os ~count:pkt.Bm_virtio.Packet.count);
      Vswitch.send vs pkt;
      true
  in
  let blk_try ~op ~bytes_ =
    match storage with
    | None -> invalid_arg "Physical.blk: no storage attached"
    | Some store ->
      let t0 = Sim.clock () in
      Cores.execute_ns cores os.Guest_os.blk_submit_ns;
      let status = Blockstore.serve store ~op ~bytes_ in
      Cores.execute_ns cores os.Guest_os.blk_complete_ns;
      (match status with `Served -> Ok (Sim.clock () -. t0) | `Rejected -> Error `Rejected)
  in
  let blk ~op ~bytes_ =
    match blk_try ~op ~bytes_ with
    | Ok lat -> lat
    | Error _ ->
      (* No ring and no limiter on the physical path: the only failure is
         storage rejection, and the time it cost has already elapsed. *)
      0.0
  in
  {
    Instance.name;
    kind = Instance.Physical;
    spec;
    endpoint;
    cores;
    memory;
    os;
    exec_ns;
    exec_mem_ns;
    mem_stream = (fun ~bytes_ -> Memory.transfer memory ~bytes_);
    send;
    send_dpdk;
    set_rx_handler = (fun h -> rx_handler := h);
    blk;
    blk_try;
    probe = (fun () -> Ok 0);
    pause = (fun () -> ());
    ipi = (fun () -> Cores.execute_ns cores 1_000.0);
    set_poll_mode = (fun b -> poll_mode := b);
    timer_arm = (fun () -> Cores.execute_ns cores 100.0);
  }
