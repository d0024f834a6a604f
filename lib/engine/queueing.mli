(** Closed-form queueing results used to validate the simulator.

    The discrete-event engine underpins every number this repository
    reports, so its queueing behaviour is checked against theory: an
    M/M/1 queue simulated with {!Sim} must reproduce these formulas
    (see the [engine.validation] test suite). Only that suite calls this
    module, and that is why it exists: it is the reference the simulator
    is checked against. All times are in the same unit as the rates'
    inverse. *)

val mm1_utilization : lambda:float -> mu:float -> float
(** ρ = λ/μ. Requires λ < μ. *)

val mm1_mean_queue_length : lambda:float -> mu:float -> float
(** L = ρ/(1−ρ), customers in system. *)

val mm1_mean_sojourn : lambda:float -> mu:float -> float
(** W = 1/(μ−λ), time in system. *)

val mm1_mean_wait : lambda:float -> mu:float -> float
(** Wq = ρ/(μ−λ), time in queue before service. *)

val mmc_erlang_c : lambda:float -> mu:float -> c:int -> float
(** Probability an arrival waits in an M/M/c queue (Erlang C). *)

val mmc_mean_wait : lambda:float -> mu:float -> c:int -> float
(** Mean queueing delay in an M/M/c queue. *)

val mg1_mean_wait : lambda:float -> mean_service:float -> service_variance:float -> float
(** Pollaczek–Khinchine: mean wait of an M/G/1 queue. *)
