(* Seeded open-loop load. The benchmark draws every input here from
   [--seed]; the simulator only receives the resulting schedule.

   Arrivals are jittered-periodic: arrival [i] lands uniformly inside its
   own slot [i*T, (i+1)*T), so the offered rate is exact over any run of
   whole slots and no slot holds more than one arrival. That keeps a
   fixed fraction of a rate cap from turning into unbounded bursts, which
   a Poisson source at 90% of a token bucket would, and so keeps every
   operation succeeding. *)

open Bm_engine

let arrivals rng ~rate_per_s ~n =
  let slot = 1e9 /. rate_per_s in
  Array.init n (fun i -> (float_of_int i +. Rng.float rng 1.0) *. slot)

(* [true] = read. *)
let read_mix rng ~n ~read_frac = Array.init n (fun _ -> Rng.float rng 1.0 < read_frac)
