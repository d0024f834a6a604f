(** IO-Bond's register file toward the bm-hypervisor.

    A pair of mailbox registers signals guest PCI accesses; each shadow
    vring has a head register (written by IO-Bond as it mirrors guest
    requests) and a tail register (written by the bm-hypervisor as it
    completes them) (§3.4.3). Head values are also mirrored into the
    shared shadow-ring buffer, so the hypervisor's poll-mode thread reads
    them from host memory; writes toward IO-Bond cross the base PCIe link
    and cost a register hop. *)

type t

val create :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  base_link:Bm_hw.Pcie.t ->
  t
(** With [obs], tail writes trace on ["iobond.mailbox"] and tail
    writes / forwarded PCI accesses are counted. With [fault], a
    [Mailbox_drop] window makes tail writes cross the link but fail to
    latch; the mailbox retries with exponential backoff (budgeted to
    outlast a default drop window) and counts
    ["iobond.mailbox.dropped_tail_writes"] per lost attempt and
    ["iobond.mailbox.lost_tail_writes"] per write abandoned after the
    retry budget. *)

val alloc_ring : t -> int
(** Register a shadow vring; returns its index. *)

val set_head : t -> int -> int -> unit
(** IO-Bond side: publish a new head value (free: the FPGA owns it and
    DMA-mirrors it with the ring data). *)

val tail : t -> int -> int

val write_tail : t -> int -> int -> (unit -> unit) -> unit
(** [write_tail t ring v k], hypervisor side: posted register write
    across the base link, a callback chain that calls [k] one register
    latency later (per attempt, when fault injection forces retries
    under {!Bm_engine.Fault.Guard.run_callback}). Tail values are
    absolute, so a retried or even lost write never corrupts state. *)

val notify_pci_access : t -> unit
(** Count one guest PCI access forwarded through the mailbox pair. *)

val pci_access_count : t -> int
val tail_writes : t -> int

val lost_tail_writes : t -> int
(** Tail writes abandoned after exhausting the retry budget. *)
