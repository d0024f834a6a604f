(** Shared memory-bandwidth model (processor sharing).

    All in-flight bulk transfers on a socket share its memory bandwidth
    fairly, and a single thread cannot exceed [per_stream] bandwidth
    (a real core's load/store machinery saturates well below the socket
    peak — this is what makes STREAM need many threads). The model is an
    exact processor-sharing queue: shares are recomputed whenever a
    transfer starts or completes.

    Bandwidth figures are in GB/s ([1e9] bytes per second). *)

type t

val create : Bm_engine.Sim.t -> peak_gb_s:float -> t
(** [create sim ~peak_gb_s] models a memory system with aggregate
    bandwidth [0.85 × peak_gb_s] (the fraction of theoretical channel
    bandwidth STREAM-like access patterns achieve) and a per-stream
    ceiling of 14 GB/s. *)

val of_spec : Bm_engine.Sim.t -> Cpu_spec.t -> t
(** Memory system sized from a CPU spec's channels and memory speed. *)

val set_tax : t -> float -> unit
(** [set_tax t f] inflates every transfer's cost by factor [1 + f];
    models the memory-virtualization overhead a vm-guest pays under load
    (§4.2: vm-guest reaches ~98%% of bm-guest STREAM bandwidth). *)

val transfer : t -> bytes_:float -> unit
(** [transfer t ~bytes_] blocks the calling process until the transfer
    completes under fair sharing. *)
