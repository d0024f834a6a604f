(* Simulator validation against closed-form queueing theory: the engine
   that produces every reported number must reproduce M/M/1, M/M/c and
   M/G/1 results when driven as those queues. *)

open Bm_engine

let check_bool = Alcotest.(check bool)

let within ?(tol = 0.06) expected actual =
  Float.abs (actual -. expected) /. expected <= tol

(* Simulate a queue: Poisson arrivals at [lambda]/s into a [servers]-wide
   station; service times drawn by [draw_service] (seconds). Returns
   (mean sojourn s, mean wait s, mean number-in-system, fraction of
   server time busy). *)
let simulate_queue ~seed ~lambda ~servers ~draw_service ~customers =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let arrivals = Rng.split rng in
  let services = Rng.split rng in
  let station = Sim.Resource.create ~capacity:servers in
  let sojourn = Stats.Summary.create () in
  let wait = Stats.Summary.create () in
  let area = ref 0.0 and busy = ref 0.0 in
  let in_system = ref 0 in
  let last_change = ref 0.0 in
  let record delta =
    let now = Sim.now sim in
    area := !area +. (float_of_int !in_system *. (now -. !last_change));
    last_change := now;
    in_system := !in_system + delta
  in
  Sim.spawn sim (fun () ->
      for _ = 1 to customers do
        Sim.delay (Rng.exponential arrivals ~mean:(1e9 /. lambda));
        Sim.fork (fun () ->
            record 1;
            let t0 = Sim.clock () in
            Sim.Resource.acquire station;
            Stats.Summary.add wait (Sim.clock () -. t0);
            let service = draw_service services *. 1e9 in
            busy := !busy +. service;
            Sim.delay service;
            Sim.Resource.release station;
            record (-1);
            Stats.Summary.add sojourn (Sim.clock () -. t0))
      done);
  Sim.run sim;
  let total = Sim.now sim in
  ( Stats.Summary.mean sojourn /. 1e9,
    Stats.Summary.mean wait /. 1e9,
    !area /. total,
    !busy /. (total *. float_of_int servers) )

let test_mm1_matches_theory () =
  let lambda = 800.0 and mu = 1000.0 in
  let w_theory = Queueing.mm1_mean_sojourn ~lambda ~mu in
  let wq_theory = Queueing.mm1_mean_wait ~lambda ~mu in
  let l_theory = Queueing.mm1_mean_queue_length ~lambda ~mu in
  let w, wq, l, rho =
    simulate_queue ~seed:101 ~lambda ~servers:1
      ~draw_service:(fun r -> Rng.exponential r ~mean:(1.0 /. mu))
      ~customers:60_000
  in
  check_bool "W matches 1/(mu-lambda)" true (within w_theory w);
  check_bool "Wq matches rho/(mu-lambda)" true (within wq_theory wq);
  check_bool "L matches rho/(1-rho)" true (within ~tol:0.08 l_theory l);
  check_bool "busy fraction matches rho" true (within (Queueing.mm1_utilization ~lambda ~mu) rho);
  (* Little's law on the simulated values themselves. *)
  check_bool "L = lambda W (simulated)" true (within ~tol:0.08 (lambda *. w) l)

let test_mmc_matches_theory () =
  let lambda = 2_500.0 and mu = 1000.0 and c = 4 in
  let wq_theory = Queueing.mmc_mean_wait ~lambda ~mu ~c in
  let _, wq, _, _ =
    simulate_queue ~seed:102 ~lambda ~servers:c
      ~draw_service:(fun r -> Rng.exponential r ~mean:(1.0 /. mu))
      ~customers:60_000
  in
  check_bool "M/M/4 Wq matches Erlang C" true (within ~tol:0.10 wq_theory wq)

let test_mg1_deterministic_service () =
  (* Deterministic service (M/D/1): P-K with zero variance — half the
     M/M/1 wait. *)
  let lambda = 700.0 and mean_service = 1.0 /. 1000.0 in
  let wq_theory = Queueing.mg1_mean_wait ~lambda ~mean_service ~service_variance:0.0 in
  let _, wq, _, _ =
    simulate_queue ~seed:103 ~lambda ~servers:1
      ~draw_service:(fun _ -> mean_service)
      ~customers:60_000
  in
  check_bool "M/D/1 Wq matches P-K" true (within ~tol:0.08 wq_theory wq);
  let mm1 = Queueing.mm1_mean_wait ~lambda ~mu:(1.0 /. mean_service) in
  check_bool "deterministic halves the wait" true (within ~tol:0.02 (mm1 /. 2.0) wq_theory)

let test_formulas_sanity () =
  (* Erlang C degenerates to rho for c = 1. *)
  let lambda = 600.0 and mu = 1000.0 in
  check_bool "ErlangC(c=1) = rho" true
    (within ~tol:1e-9 (lambda /. mu) (Queueing.mmc_erlang_c ~lambda ~mu ~c:1));
  (* More servers, less waiting. *)
  check_bool "monotone in c" true
    (Queueing.mmc_mean_wait ~lambda:2500.0 ~mu:1000.0 ~c:8
    < Queueing.mmc_mean_wait ~lambda:2500.0 ~mu:1000.0 ~c:4);
  Alcotest.check_raises "unstable rejected" (Invalid_argument "Queueing: unstable (rho >= 1)")
    (fun () -> ignore (Queueing.mm1_mean_sojourn ~lambda:2.0 ~mu:1.0))

let suites =
  [
    ( "engine.validation",
      [
        Alcotest.test_case "M/M/1 vs theory" `Quick test_mm1_matches_theory;
        Alcotest.test_case "M/M/4 vs Erlang C" `Quick test_mmc_matches_theory;
        Alcotest.test_case "M/D/1 vs P-K" `Quick test_mg1_deterministic_service;
        Alcotest.test_case "formula sanity" `Quick test_formulas_sanity;
      ] );
  ]
