open Bm_engine
open Bm_guest

type injected = {
  sim : Sim.t;
  base : Instance.t;
  wrapped : Instance.t;
}

(* Inserting the layer shadows the guest's page tables: a brief stall. *)
let insertion_stall_ns = 50e6

let inject sim rng base =
  match base.Instance.kind with
  | Instance.Virtual -> Error "already virtualized"
  | Instance.Physical -> Error "not a cloud instance"
  | Instance.Bare_metal _ ->
    Sim.delay insertion_stall_ns;
    let tlb = Bm_hw.Tlb.create () in
    let preempt = Preempt.create sim rng ~mode:Preempt.Exclusive ~host_load:0.3 () in
    (* The thin layer adds EPT-style paging and occasional traps on what
       used to be a native guest. *)
    let wrapped =
      {
        base with
        Instance.kind = Instance.Virtual;
        exec_ns = (fun natural -> base.Instance.exec_ns (natural *. 1.02));
        exec_mem_ns =
          (fun ~working_set ~locality natural ->
            let factor = Ept.dilation_factor tlb ~virtualized:true ~working_set ~locality in
            base.Instance.exec_ns (natural *. factor));
        pause = (fun () -> Preempt.maybe_steal preempt);
      }
    in
    Ok { sim; base; wrapped }

let as_instance t = t.wrapped

type migration_stats = {
  precopy_rounds : int;
  bytes_copied : float;
  blackout_ns : float;
  total_ns : float;
}

let max_rounds = 12
let target_blackout_ns = 10e6

(* Pre-copy traffic on the fabric: 1 MB bursts, a fixed window of
   outstanding chunks, go-back-on-drop retransmission. The endpoint ids
   and tag only feed the ECMP hash — they pin the whole transfer to one
   path, like a real TCP stream. *)
let migration_chunk_bytes = 1_000_000
let migration_window = 16
let migration_tag = 7
let migration_retransmit_ns = 100_000.0

let copy_via sim (net, src_host, dst_host) bytes =
  let chunks = int_of_float (Float.ceil (bytes /. float_of_int migration_chunk_bytes)) in
  if chunks > 0 then begin
    let finished = Sim.Ivar.create () in
    let next = ref 0 in
    let completed = ref 0 in
    let size_of i =
      if i < chunks then migration_chunk_bytes
      else
        (* Last chunk carries the remainder. *)
        let r = bytes -. (float_of_int (chunks - 1) *. float_of_int migration_chunk_bytes) in
        max 1 (int_of_float (Float.ceil r))
    in
    let rec transmit pkt =
      Bm_fabric.Fabric.send net ~src_host ~dst_host pkt
        ~on_drop:(fun pkt ->
          Sim.schedule sim ~delay:migration_retransmit_ns (fun () -> transmit pkt))
        ~deliver:(fun _ ->
          incr completed;
          if !completed >= chunks then Sim.Ivar.fill finished () else send_next ())
    and send_next () =
      if !next < chunks then begin
        incr next;
        let i = !next in
        transmit
          (Bm_virtio.Packet.make ~id:i ~src:(0x4d00 + src_host) ~dst:(0x4d00 + dst_host)
             ~size:(size_of i) ~tag:migration_tag ~protocol:Bm_virtio.Packet.Tcp
             ~sent_at:(Sim.now sim) ())
      end
    in
    for _ = 1 to min migration_window chunks do
      send_next ()
    done;
    Sim.Ivar.read finished
  end

(* The analytic dedicated link: 100 Gbit/s. *)
let dedicated_link_gb_s = 12.5

let migrate (t : injected) ?via ~dirty_rate_gb_s ~mem_gb () =
  ignore t.base;
  let link_gb_s =
    match via with
    | None -> dedicated_link_gb_s
    | Some (net, src_host, dst_host) ->
      Bm_fabric.Fabric.path_capacity_gbit_s net ~src_host ~dst_host /. 8.0
  in
  if dirty_rate_gb_s < 0.0 || mem_gb <= 0 then Error "bad migration parameters"
  else if dirty_rate_gb_s >= link_gb_s then
    Error "guest dirties memory faster than the link can copy: will never converge"
  else begin
    let t0 = Sim.clock () in
    let link_b_ns = link_gb_s in
    (* Copy a round's worth of bytes: over the fabric (contending with
       tenant traffic, so the elapsed time is measured, not computed)
       when a path is given, else the analytic dedicated link. *)
    let copy bytes =
      match via with
      | None ->
        let copy_ns = bytes /. link_b_ns in
        Sim.delay copy_ns;
        copy_ns
      | Some path ->
        let start = Sim.clock () in
        copy_via t.sim path bytes;
        Sim.clock () -. start
    in
    (* Iterative pre-copy: each round copies what the previous round left
       dirty; dirtying continues while copying. *)
    let rec rounds n remaining copied =
      let copy_ns = copy remaining in
      let copied = copied +. remaining in
      let dirtied = copy_ns *. dirty_rate_gb_s in
      if dirtied /. link_b_ns <= target_blackout_ns || n + 1 >= max_rounds then (n + 1, dirtied, copied)
      else rounds (n + 1) dirtied copied
    in
    let total_bytes = float_of_int mem_gb *. 1e9 in
    let precopy_rounds, remainder, copied = rounds 0 total_bytes 0.0 in
    (* Stop-and-copy blackout for the final remainder. *)
    let blackout_ns = copy remainder in
    Ok
      {
        precopy_rounds;
        bytes_copied = copied +. remainder;
        blackout_ns;
        total_ns = Sim.clock () -. t0;
      }
  end
