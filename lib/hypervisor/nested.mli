(** Nested virtualization overhead (§2.3).

    "A nested guest in KVM can only reach about 80%% of the native
    performance. For I/O intensive programs, the performance drops to
    about 25%% of the native one." The mechanism (the Turtles model): an
    L2 exit traps to L0, which replays it to L1; L1's handling itself
    exits to L0 many times, so one logical exit multiplies into tens of
    real exits. *)

val cpu_efficiency : float
(** ≈ 0.80: nested guest CPU throughput relative to native. *)

val io_efficiency : float
(** ≈ 0.25: nested guest I/O throughput relative to native. *)

val derived_cpu_efficiency : exit_rate_per_s:float -> float
(** Mechanistic check: native-exit-rate → nested CPU efficiency, from
    the exit multiplier and per-exit costs. A moderately active guest
    (~8,000 exits/s/vCPU) lands near {!cpu_efficiency}. *)
