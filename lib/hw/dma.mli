(** IO-Bond's internal DMA engine.

    The engine copies buffers between the compute-board memory and the
    bm-hypervisor's shadow rings, crossing one PCIe link on each side.
    Its internal throughput is ~50 Gbit/s (§3.4.3), so the end-to-end
    copy rate of one flow is min(link-in, engine, link-out); we model the
    engine as its own serialised stage with cut-through chunking so
    concurrent flows share it fairly. *)

type t

val create :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  ?gbit_s:float ->
  ?setup_ns:float ->
  unit ->
  t
(** Default [gbit_s] 50 (paper), [setup_ns] 300 (descriptor fetch and
    doorbell processing per copy). With [obs], copies emit spans on the
    ["hw.dma"] track and feed the ["hw.dma.copy_ns"] latency histogram
    and ["hw.dma.bytes"] counter. With [fault], a [Dma_stall] window
    holds new copies at the doorbell until the engine resumes
    (["hw.dma.stalls"]). *)

val copy : t -> src:Pcie.t -> dst:Pcie.t -> bytes_:int -> (unit -> unit) -> unit
(** [copy t ~src ~dst ~bytes_ k] moves a buffer across [src], through
    the engine, and across [dst], and calls [k] when the last byte
    lands. A callback chain: the setup and the streaming are one timed
    event each, and the engine is taken with
    {!Bm_engine.Sim.Resource.acquire_callback}. A process waits for a
    copy with {!Bm_engine.Sim.await}. *)

val bytes_copied : t -> float
