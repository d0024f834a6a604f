(* Real L0 exits caused by one L2 exit (~20, Turtles-class). *)
let exit_multiplier = 20.0
let cpu_efficiency = 0.80
let io_efficiency = 0.25

(* One native exit (~10 us handled) becomes [exit_multiplier] exits of
   ~1.2 us average under nesting (most replayed exits are lightweight).
   Efficiency = useful time / (useful + exit time). *)
let derived_cpu_efficiency ~exit_rate_per_s =
  let nested_exit_cost_ns = exit_multiplier *. 1_200.0 in
  let overhead_per_s = exit_rate_per_s *. nested_exit_cost_ns in
  1e9 /. (1e9 +. overhead_per_s)
