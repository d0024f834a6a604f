(** STREAM 5.10 model (Fig. 8).

    "The benchmark was configured to use 1.5GB of memory per array (200M
    elements, 8 bytes each) and 4.5GB in total. We run the benchmark ten
    times with 16 threads." Each kernel's bandwidth is the bytes it moves
    divided by its wall time under the fair-sharing memory model; the
    best of the runs is reported, as STREAM does. *)

type kernel = Copy | Scale | Add | Triad

type result = { kernel : kernel; best_gb_s : float; avg_gb_s : float }

val kernel_name : kernel -> string

val run :
  Bm_engine.Sim.t ->
  Bm_guest.Instance.t ->
  ?elements:int ->
  ?runs:int ->
  unit ->
  result list
(** All four kernels with the paper's defaults (16 threads, 200M
    elements, 10 runs). *)
