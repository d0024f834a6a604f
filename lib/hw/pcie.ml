open Bm_engine

type t = {
  sim : Sim.t;
  gbit_s : float;
  register_ns : float;
  mutable bytes_moved : float;
  obs : Obs.t;
  fault : Fault.t;
}

let create ?(obs = Obs.none) ?(fault = Fault.none) sim ~gbit_s ~register_ns =
  assert (gbit_s > 0.0 && register_ns >= 0.0);
  { sim; gbit_s; register_ns; bytes_moved = 0.0; obs; fault }

let x4 ?obs ?fault sim ~register_ns = create ?obs ?fault sim ~gbit_s:32.0 ~register_ns
let x8 ?obs ?fault sim ~register_ns = create ?obs ?fault sim ~gbit_s:64.0 ~register_ns

let gbit_s t = t.gbit_s
let register_ns t = t.register_ns

(* A link-down window stalls TLPs at the port until the retrain
   completes; nothing is lost, the transaction just waits. *)
let register_access t k =
  let hop () =
    Obs.add t.obs "hw.pcie.register_accesses" 1;
    Obs.instant t.obs ~track:"hw.pcie" "register_access";
    Sim.schedule t.sim ~delay:t.register_ns k
  in
  if Fault.is_active t.fault Fault.Link_down then begin
    Obs.add t.obs "hw.pcie.link_stalls" 1;
    Fault.when_clear t.fault Fault.Link_down hop
  end
  else hop ()

let account t ~bytes_ = t.bytes_moved <- t.bytes_moved +. float_of_int bytes_

let bytes_moved t = t.bytes_moved
