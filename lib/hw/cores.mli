(** Execution on a pool of hardware threads.

    A [Cores.t] models the logical CPUs of one socket (or a slice of one)
    as a FIFO-admission resource: a job acquires a hardware thread, holds
    it for the job's execution time, and releases the thread. A
    virtualization layer that slows a job down (VM exits, EPT walks)
    passes the longer time itself. *)

type t

val create : Bm_engine.Sim.t -> spec:Cpu_spec.t -> ?threads:int -> unit -> t
(** [create sim ~spec ()] is a pool with [threads] hardware threads
    (default [spec.threads]) clocked at [spec.base_ghz]. *)

val ghz : t -> float
val thread_count : t -> int

val execute_ns : t -> float -> unit
(** [execute_ns t ns] runs a job of [ns] of execution time from a
    process: blocks until a thread is free, then holds it for [ns] —
    {!execute_ns_callback} awaited ({!Bm_engine.Sim.await}). *)

val execute_ns_callback : t -> float -> (unit -> unit) -> unit
(** [execute_ns_callback t ns k] is {!execute_ns} for a callback chain:
    the job takes a thread ({!Bm_engine.Sim.Resource.acquire_callback}),
    holds it for [ns] as one timed event, frees it and calls [k]. The
    events are the ones a process calling {!execute_ns} takes. *)

val utilization : t -> now:float -> float
(** Fraction of thread-time spent executing since creation. *)
