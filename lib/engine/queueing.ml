let check_stable ~lambda ~mu ~servers =
  if lambda <= 0.0 || mu <= 0.0 then invalid_arg "Queueing: rates must be positive";
  if lambda >= mu *. float_of_int servers then invalid_arg "Queueing: unstable (rho >= 1)"

let mm1_utilization ~lambda ~mu =
  check_stable ~lambda ~mu ~servers:1;
  lambda /. mu

let mm1_mean_queue_length ~lambda ~mu =
  let rho = mm1_utilization ~lambda ~mu in
  rho /. (1.0 -. rho)

let mm1_mean_sojourn ~lambda ~mu =
  check_stable ~lambda ~mu ~servers:1;
  1.0 /. (mu -. lambda)

let mm1_mean_wait ~lambda ~mu =
  let rho = mm1_utilization ~lambda ~mu in
  rho /. (mu -. lambda)

let mmc_erlang_c ~lambda ~mu ~c =
  if c < 1 then invalid_arg "Queueing: c >= 1";
  check_stable ~lambda ~mu ~servers:c;
  let a = lambda /. mu in
  let cf = float_of_int c in
  let rho = a /. cf in
  (* Sum a^k/k! for k < c, iteratively to stay stable. *)
  let rec partial k term acc =
    if k = c then (acc, term)
    else partial (k + 1) (term *. a /. float_of_int (k + 1)) (acc +. term)
  in
  let sum, ac_over_cfact = partial 0 1.0 0.0 in
  let tail = ac_over_cfact /. (1.0 -. rho) in
  tail /. (sum +. tail)

let mmc_mean_wait ~lambda ~mu ~c =
  let pw = mmc_erlang_c ~lambda ~mu ~c in
  pw /. ((float_of_int c *. mu) -. lambda)

let mg1_mean_wait ~lambda ~mean_service ~service_variance =
  if mean_service <= 0.0 then invalid_arg "Queueing: mean service must be positive";
  let mu = 1.0 /. mean_service in
  check_stable ~lambda ~mu ~servers:1;
  let rho = lambda /. mu in
  let cs2 = service_variance /. (mean_service *. mean_service) in
  (* Wq = (rho / (1 - rho)) * ((1 + Cs^2) / 2) * E[S] *)
  rho /. (1.0 -. rho) *. ((1.0 +. cs2) /. 2.0) *. mean_service
