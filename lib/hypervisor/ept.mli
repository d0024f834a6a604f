(** Memory-virtualization (EPT/two-dimensional paging) overhead.

    A TLB miss under nested paging walks both the guest page table and
    the EPT — up to 24 memory accesses versus 4 natively (§5, [31]).
    This module turns a workload's memory profile into the execution-time
    dilation a vm-guest experiences, using the shared {!Bm_hw.Tlb}
    model. *)

val dilation_factor :
  ?obs:Bm_engine.Obs.t ->
  Bm_hw.Tlb.t ->
  virtualized:bool ->
  working_set:float ->
  locality:float ->
  float
(** Multiplicative execution-time factor (≥ 1). For [virtualized:false]
    this is the native page-walk cost, already part of baseline
    performance; the vm overhead is the ratio of the two factors. With
    [obs], virtualized factors feed the ["hyp.ept.dilation"]
    histogram. *)
