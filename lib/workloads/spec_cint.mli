(** SPEC CINT2006 model (Fig. 7).

    Each of the twelve integer benchmarks is characterised by its memory
    working set and access locality (from published characterisation
    studies); a run executes the profile through the instance's
    memory-aware execution path, so the vm-guest pays EPT walk overheads
    proportional to each benchmark's TLB behaviour while bm/physical run
    natively. Scores are reported relative to a caller-supplied baseline,
    as the figure plots them. *)

type profile = {
  bench : string;
  natural_ns : float;  (** native execution time of the (scaled) run *)
  working_set : float;  (** bytes *)
  locality : float;
}

type score = { bench : string; time_ns : float }

val run : Bm_engine.Sim.t -> Bm_guest.Instance.t -> score list

val relative : baseline:score list -> score list -> (string * float) list
(** [relative ~baseline scores]: per-benchmark speed relative to
    baseline ([> 1] = faster), plus a final ["geomean"] row. *)
