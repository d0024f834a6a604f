open Bm_engine

type t = {
  sim : Sim.t;
  gbit_s : float;
  setup_ns : float;
  engine : Sim.Resource.resource;
  mutable copies : int;
  mutable bytes_copied : float;
  obs : Obs.t;
  fault : Fault.t;
}

let create ?(obs = Obs.none) ?(fault = Fault.none) sim ?(gbit_s = 50.0) ?(setup_ns = 300.0) () =
  assert (gbit_s > 0.0 && setup_ns >= 0.0);
  {
    sim;
    gbit_s;
    setup_ns;
    engine = Sim.Resource.create ~capacity:1;
    copies = 0;
    bytes_copied = 0.0;
    obs;
    fault;
  }

(* Cut-through model: the copy streams through all three stages at the
   rate of the slowest one. The engine resource is held for the whole
   streaming duration, which makes the engine the aggregation point for
   concurrent flows — exactly the paper's "IO-Bond internal DMA
   throughput is around 50Gbps" cap on a guest's combined x4 links. *)
let copy t ~src ~dst ~bytes_ k =
  assert (bytes_ >= 0);
  let start () =
    let t0 = Obs.start t.obs in
    Obs.begin_span t.obs ~track:"hw.dma" "copy";
    Sim.schedule t.sim ~delay:t.setup_ns (fun () ->
        let bottleneck = Float.min t.gbit_s (Float.min (Pcie.gbit_s src) (Pcie.gbit_s dst)) in
        Sim.Resource.acquire_callback t.sim t.engine (fun () ->
            Sim.schedule t.sim ~delay:(float_of_int bytes_ *. 8.0 /. bottleneck) (fun () ->
                Sim.Resource.release t.engine;
                Pcie.account src ~bytes_;
                Pcie.account dst ~bytes_;
                t.copies <- t.copies + 1;
                t.bytes_copied <- t.bytes_copied +. float_of_int bytes_;
                Obs.end_span t.obs ~track:"hw.dma" "copy";
                Obs.observe_since t.obs "hw.dma.copy_ns" t0;
                Obs.add t.obs "hw.dma.bytes" bytes_;
                k ())))
  in
  (* A stalled engine holds new descriptors at the doorbell; the copy
     proceeds once the engine resumes streaming. *)
  if Fault.is_active t.fault Fault.Dma_stall then begin
    Obs.add t.obs "hw.dma.stalls" 1;
    Fault.when_clear t.fault Fault.Dma_stall start
  end
  else start ()

let bytes_copied t = t.bytes_copied
