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
let copy t ~src ~dst ~bytes_ =
  assert (bytes_ >= 0);
  (* A stalled engine holds new descriptors at the doorbell; the copy
     proceeds once the engine resumes streaming. *)
  if Fault.is_active t.fault Fault.Dma_stall then begin
    Metrics.incr_opt (Obs.metrics t.obs) "hw.dma.stalls";
    Fault.block_until_clear t.fault Fault.Dma_stall
  end;
  let t0 = Sim.now t.sim in
  Trace.begin_span_opt (Obs.trace t.obs) ~track:"hw.dma" "copy" ~now:t0;
  Sim.delay t.setup_ns;
  let bottleneck = Float.min t.gbit_s (Float.min (Pcie.gbit_s src) (Pcie.gbit_s dst)) in
  Sim.Resource.with_resource t.engine (fun () ->
      Sim.delay (float_of_int bytes_ *. 8.0 /. bottleneck));
  Pcie.account src ~bytes_;
  Pcie.account dst ~bytes_;
  t.copies <- t.copies + 1;
  t.bytes_copied <- t.bytes_copied +. float_of_int bytes_;
  let t1 = Sim.now t.sim in
  Trace.end_span_opt (Obs.trace t.obs) ~track:"hw.dma" "copy" ~now:t1;
  Metrics.observe_opt (Obs.metrics t.obs) "hw.dma.copy_ns" (t1 -. t0);
  Metrics.incr_opt (Obs.metrics t.obs) ~by:(float_of_int bytes_) "hw.dma.bytes"

let bytes_copied t = t.bytes_copied
