(** PCIe links and register access.

    IO-Bond exposes a x4 link per emulated virtio device toward the
    compute board (32 Gbit/s each) and a x8 link toward the base server
    (§3.4.3). Register (config/BAR) accesses through the low-cost FPGA
    take 0.8 µs per hop; an ASIC would take 0.2 µs (§6).

    A link times register hops only. Bulk data crosses it inside a
    {!Dma.copy}, which paces the copy by the slower of its two links and
    records the bytes here with {!account}. *)

type t

val x4 : ?obs:Bm_engine.Obs.t -> ?fault:Bm_engine.Fault.t -> Bm_engine.Sim.t -> register_ns:float -> t
(** A 32 Gbit/s link, per the paper's virtio device links, whose
    register accesses take [register_ns] (800 on the paper's FPGA).
    With [obs], register accesses count to
    ["hw.pcie.register_accesses"] with instants on the ["hw.pcie"]
    track. With [fault], a [Link_down] window stalls register accesses
    until the link retrains (counted in ["hw.pcie.link_stalls"]);
    nothing in flight is lost. *)

val x8 : ?obs:Bm_engine.Obs.t -> ?fault:Bm_engine.Fault.t -> Bm_engine.Sim.t -> register_ns:float -> t
(** As {!x4} at 64 Gbit/s: the IO-Bond uplink to the bm-hypervisor. *)

val gbit_s : t -> float
val register_ns : t -> float

val register_access : t -> (unit -> unit) -> unit
(** [register_access t k]: one register read/write, a callback chain
    that calls [k] [register_ns] later (after any [Link_down] window);
    a process waits for it with {!Bm_engine.Sim.await}. *)

val account : t -> bytes_:int -> unit
(** Record payload carried by an external transfer model (e.g. a DMA
    engine streaming through this link) without re-serialising it. *)

val bytes_moved : t -> float
(** Total payload bytes carried since creation. *)
