open Bm_engine

type mode = Shared | Exclusive

type t = {
  sim : Sim.t;
  rng : Rng.t;
  steal_p : float; (* probability a request boundary loses the CPU *)
  slice_ns : float; (* mean stolen slice *)
  mutable stolen_ns : float;
  obs : Obs.t;
}

(* A shareable vCPU at 50% host load is preempted at boundaries with
   ~0.4% probability for a mean ~30 us slice — about 1% of wall time for
   a service issuing ~30k requests/s, the body of Fig. 1's distribution.
   Pinned vCPUs only lose the CPU to unavoidable host work (~10x less). *)
let params_of ~mode ~host_load =
  match mode with
  | Shared -> (0.008 *. host_load, 30_000.0)
  | Exclusive -> (0.0008 *. host_load, 15_000.0)

let create ?(obs = Obs.none) sim rng ~mode ?(host_load = 0.5) () =
  assert (host_load >= 0.0 && host_load <= 1.0);
  let steal_p, slice_ns = params_of ~mode ~host_load in
  { sim; rng; steal_p; slice_ns; stolen_ns = 0.0; obs }

(* The boundary lost the CPU: draw the slice and sleep it out. *)
let steal t k =
  let body = Rng.exponential t.rng ~mean:t.slice_ns in
  (* 2% of steals hit a long host task: heavy (Pareto) tail. *)
  let tail =
    if Rng.bernoulli t.rng ~p:0.02 then Rng.pareto t.rng ~scale:(4.0 *. t.slice_ns) ~shape:1.6
    else 0.0
  in
  let pause = body +. tail in
  t.stolen_ns <- t.stolen_ns +. pause;
  Obs.observe t.obs "hyp.preempt.stolen_ns" pause;
  Obs.begin_span t.obs ~track:"hyp.preempt" "steal";
  Sim.schedule t.sim ~delay:pause (fun () ->
      Obs.end_span t.obs ~track:"hyp.preempt" "steal";
      k ())

let maybe_steal_callback t k = if Rng.bernoulli t.rng ~p:t.steal_p then steal t k else k ()
let maybe_steal t = if Rng.bernoulli t.rng ~p:t.steal_p then Sim.await (steal t)

let stolen_ns t = t.stolen_ns

(* Fig. 1 calibration. The figure shows shared p99 between ~2% and ~4%
   and p99.9 between ~2% and ~10% as host load swings over the day: the
   tail widens with load. A lognormal with a load-dependent shape
   reproduces that: at load 0.3, p99 ~ 2% / p99.9 ~ 3%; at load 0.8,
   p99 ~ 4% / p99.9 ~ 10%. Exclusive (pinned) VMs sit near 0.2% / 0.5%
   with little load sensitivity. *)
let sample_window_fraction rng ~mode ~host_load =
  let sample =
    match mode with
    | Shared ->
      let sigma = 0.5 +. (0.7 *. host_load) in
      Rng.lognormal rng ~median:0.0036 ~sigma
    | Exclusive ->
      let median = 1.2e-4 *. (0.7 +. (0.6 *. host_load)) in
      Rng.lognormal rng ~median ~sigma:1.2
  in
  Float.min 1.0 sample
