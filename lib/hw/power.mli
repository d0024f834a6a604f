(** TDP-based power accounting for the cost-efficiency comparison (§3.5).

    The paper estimates 3.17 W per vCPU for a single-board BM-Hive
    configuration against 3.06 W per vCPU for a vm-based server, the
    difference coming from the per-guest FPGA and the base-server CPU. *)

type component = Cpu of Cpu_spec.t * int  (** spec × socket count *) | Fpga of int  (** count *) | Fixed of string * float  (** label, watts *)

val watts_per_vcpu : components:component list -> sellable_vcpus:int -> float
(** Total platform TDP divided by the hardware threads actually sold. *)
