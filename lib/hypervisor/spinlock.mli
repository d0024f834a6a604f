(** Lock-holder preemption (§2.1, §5).

    "There are many other aspects of virtualization that contributes to
    performance overhead, such as the lock holder preemption (a vCPU is
    preempted while holding a lock)." A guest spinlock is cheap — until
    the vCPU holding it loses the physical CPU: every waiter then spins
    for the whole preemption slice. Co-scheduling and paravirtual
    spinlocks mitigate this on VMs; on a compute board it cannot happen.

    A [Spinlock.t] is a guest kernel spinlock: the critical section runs
    on the instance's cores, and — through the instance's [pause] hook —
    the holder can be preempted mid-section when the substrate allows it.
    Waiters burn CPU while they spin (that is the point of a spinlock).

    Only a unit test reaches this module so far. It stays because it
    models a claim of the paper (§2.1), and a [sec2_1] experiment row
    reporting spin time and worst wait, bm vs vm, is planned for it. *)

type t

type stats = {
  acquisitions : int;
  total_spin_ns : float;  (** CPU burned by waiters *)
  worst_wait_ns : float;
}

val create : Bm_guest.Instance.t -> t

val critical_section : t -> work_ns:float -> unit
(** Take the lock, run [work_ns] of guest work (the holder may be
    preempted mid-section on a vm-guest), release. Must be called from a
    simulation process. *)

val stats : t -> stats
