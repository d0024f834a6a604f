(** On-demand virtualization for bm-guest live migration (§6).

    "Technically, we can insert a virtualization layer into the bm-guest
    at run-time and convert the bare-metal guest to a special vm-guest,
    which can then be migrated to another compute board. We have built a
    working prototype of this design." The paper also lists the two
    drawbacks — it is intrusive, and the injected layer must make
    assumptions about the guest OS — so it never shipped.

    This module is that prototype: {!inject} wraps a running bm-guest
    instance with a thin virtualization layer (its execution becomes
    EPT-dilated and preemptible); {!migrate} then performs a
    pre-copy-style move over the datacenter network. *)

type injected

val inject :
  Bm_engine.Sim.t -> Bm_engine.Rng.t -> Bm_guest.Instance.t -> (injected, string) result
(** Insert the thin hypervisor under a running bm-guest. Fails on
    anything that is not a bare-metal instance. Must be called from a
    simulation process (the insertion stalls the guest briefly while its
    page tables are shadowed). *)

val as_instance : injected -> Bm_guest.Instance.t
(** The guest's view after injection: same workload interface, but
    execution now pays virtualization overheads — the intrusiveness the
    paper objected to, made measurable. *)

type migration_stats = {
  precopy_rounds : int;
  bytes_copied : float;
  blackout_ns : float;  (** stop-and-copy downtime *)
  total_ns : float;
}

val migrate :
  injected ->
  ?via:Bm_fabric.Fabric.t * int * int ->
  dirty_rate_gb_s:float ->
  mem_gb:int ->
  unit ->
  (migration_stats, string) result
(** Pre-copy the guest's memory over a dedicated 12.5 GB/s (100 Gbit/s)
    network path while it runs, iterating until the dirty
    remainder fits a sub-10 ms stop-and-copy (or round limit), then cut
    over. Must be called from a simulation process.

    With [via (net, src_host, dst_host)], the transfer streams 1 MB
    chunks over the link-level fabric between those hosts instead of an
    analytic dedicated link: the copy contends with tenant traffic in
    the same queues (drops are retransmitted), so round times — and thus
    rounds, blackout and total — stretch under congestion. The
    convergence check then uses the path's bottleneck capacity. *)
