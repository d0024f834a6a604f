(** Host-task preemption of vCPUs (§2.1, Fig. 1).

    "On a busy server, it could take the full load of 8 to 10 CPU cores
    for the hypervisor to serve I/Os and other requests from the VMs. The
    tasks of the hypervisor and the host OS can preempt the execution of
    the guest VMs." Pinned ("exclusive") vCPUs are preempted roughly an
    order of magnitude less than shareable ones.

    Two views of the same model:
    - {!maybe_steal} injects actual pauses into a running vm-guest at
      request boundaries (this is what creates the p99.9 latency tails in
      the fio and application benchmarks);
    - {!sample_window_fraction} draws the fraction of a telemetry window a
      VM spends preempted, for the 20,000-VM Fig. 1 Monte-Carlo. *)

type mode = Shared | Exclusive

type t

val create :
  ?obs:Bm_engine.Obs.t ->
  Bm_engine.Sim.t ->
  Bm_engine.Rng.t ->
  mode:mode ->
  ?host_load:float ->
  unit ->
  t
(** [host_load] ∈ [\[0, 1\]] (default 0.5) scales interference: the
    fraction of the reserved host cores kept busy serving I/O. With
    [obs], each steal spans the ["hyp.preempt"] track and feeds the
    ["hyp.preempt.stolen_ns"] histogram. *)

val maybe_steal : t -> unit
(** Call at a request boundary: with the configured probability the
    vCPU loses the CPU for one scheduling slice (exponential body,
    Pareto tail). No-op most of the time. *)

val maybe_steal_callback : t -> (unit -> unit) -> unit
(** {!maybe_steal} for a callback chain (a host-side worker): the same
    draws, and the stolen slice is one timed event before the
    continuation; without a steal the continuation runs at once.
    {!maybe_steal} awaits the same steal ({!Bm_engine.Sim.await}) and
    performs no effect when none is drawn. *)

val stolen_ns : t -> float
(** Total time stolen through {!maybe_steal}. *)

val sample_window_fraction : Bm_engine.Rng.t -> mode:mode -> host_load:float -> float
(** Draw one VM×window preemption fraction (unitless, 0–1). Calibrated
    so a 20,000-VM fleet at typical load reproduces Fig. 1: shared p99
    ≈ 2–4%%, p99.9 ≈ 2–10%%; exclusive ≈ 0.2%% / 0.5%%. *)
