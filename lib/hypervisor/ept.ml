open Bm_engine

(* Memory accesses issued per ns of compute on the reference core: about
   one access every 2 ns for integer server code. *)
let accesses_per_ns = 0.5

let dilation_factor ?(obs = Obs.none) tlb ~virtualized ~working_set ~locality =
  let per_access =
    Bm_hw.Tlb.avg_overhead_ns tlb ~virtualized ~working_set_bytes:working_set ~locality
  in
  let factor = 1.0 +. (per_access *. accesses_per_ns) in
  (* Factors cluster just above 1, so the default histogram floor of
     1 ns would collapse them into one bucket. *)
  if virtualized then
    Obs.observe obs ~lo:0.5 ~hi:64.0 ~precision:0.001 "hyp.ept.dilation" factor;
  factor
