(** VM-exit taxonomy and cost (§2.1).

    "Many events in the guest can cause VM exits, such as updates to MSRs
    …, IPIs …, and certain page faults. … It takes about 10 µs for the
    KVM hypervisor to handle an event, but could be longer if the event
    handler is preempted by the kernel. The performance overhead becomes
    observable when there are more than 5,000 VM exits per second." *)

type reason =
  | Ept_violation
  | Msr_access
  | Ipi
  | Io_instruction  (** port/config-space access emulation *)
  | Hlt
  | External_interrupt
  | Interrupt_window  (** virtual interrupt injection *)
  | Cpuid

val handle_ns : reason -> float
(** Hypervisor time to handle one exit of this kind. Heavyweight exits
    cost the paper's ~10 µs; lightweight ones (HLT wake-ups, CPUID) less. *)

type counters

val create_counters : ?obs:Bm_engine.Obs.t -> ?track:string -> unit -> counters
(** With [obs], each {!record} emits a per-reason instant on [track]
    (default ["hyp.vmexit"]) and bumps the ["hyp.vmexit.<reason>"]
    counter. *)

val record : counters -> reason -> unit
val count : counters -> reason -> int
val total : counters -> int
val total_time_ns : counters -> float
val rate_per_s : counters -> elapsed_ns:float -> float
