(** Execution on a pool of hardware threads.

    A [Cores.t] models the logical CPUs of one socket (or a slice of one)
    as a FIFO-admission resource: a job acquires a hardware thread, burns
    cycles at the effective clock, and releases the thread. An optional
    per-job overhead hook lets virtualization layers inflate execution
    time (VM exits, EPT walks) without the workload code knowing. *)

type t

val create : Bm_engine.Sim.t -> spec:Cpu_spec.t -> ?threads:int -> unit -> t
(** [create sim ~spec ()] is a pool with [threads] hardware threads
    (default [spec.threads]) clocked at [spec.base_ghz]. *)

val ghz : t -> float
val thread_count : t -> int

val set_dilation : t -> (float -> float) -> unit
(** [set_dilation t f] installs a hook mapping natural execution time (ns)
    to actual time; used to model virtualization overhead. Default is the
    identity. *)

val execute_cycles : t -> float -> unit
(** [execute_cycles t c] runs a job of [c] cycles: blocks until a thread
    is free, then for the dilated execution time. Must be called from a
    simulation process. *)

val execute_ns : t -> float -> unit
(** As {!execute_cycles} but the job length is given in ns of natural
    execution time at full speed: {!execute_ns_callback} awaited
    ({!Bm_engine.Sim.await}). *)

val execute_ns_callback : t -> float -> (unit -> unit) -> unit
(** [execute_ns_callback t ns k] is {!execute_ns} for a callback chain:
    the job takes a thread ({!Bm_engine.Sim.Resource.acquire_callback}),
    holds it for the dilated time as one timed event, frees it and calls
    [k]. The events are the ones a process calling {!execute_ns} takes. *)

val utilization : t -> now:float -> float
(** Fraction of thread-time spent executing since creation. *)
