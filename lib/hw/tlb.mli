(** TLB reach and page-walk cost model.

    Native page walks read up to 4 page-table levels; under nested paging
    every guest level must itself be translated, giving up to 24 memory
    accesses per walk (§5, citing POM-TLB [31]). This module turns a
    workload's memory footprint and locality into an average per-access
    overhead, which {!Bm_hyp.Ept} applies to vm-guests. *)

type t

val create : unit -> t
(** 1536 entries (Broadwell L2 STLB) of 4 KB pages. Every TLB
    charges 60 ns per page-walk memory access (a miss mostly hits the
    page-walk caches and DRAM) and amortises one translation over 1024
    accesses per page visit (the accesses made while the page is
    hot). *)

val reach_bytes : t -> float
(** Memory covered by the TLB: entries × page size. *)

val miss_rate : t -> working_set_bytes:float -> locality:float -> float
(** [miss_rate t ~working_set_bytes ~locality] is the probability that a
    memory access misses the TLB. [locality] ∈ [\[0, 1\]] is the fraction
    of accesses that stay within recently used pages (1 = perfectly
    sequential). When the working set fits in the TLB the rate is ~0;
    beyond that the uncovered fraction of random accesses miss. *)

val walk_ns : t -> virtualized:bool -> float
(** Cost of one page walk: 4 accesses natively, 24 under two-level
    paging. *)

val avg_overhead_ns : t -> virtualized:bool -> working_set_bytes:float -> locality:float -> float
(** Expected extra ns per memory access due to TLB misses. *)
