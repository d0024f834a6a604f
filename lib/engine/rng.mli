(** Deterministic, splittable pseudo-random number generator.

    Implemented as SplitMix64. Every simulation component owns its own
    stream (obtained by {!split}), so adding a component or reordering
    draws in one component never perturbs the random sequence seen by
    another — a property the reproduction experiments rely on. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val bits64 : t -> int64
(** [bits64 t] is the next 64 uniformly random bits. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller. *)

val lognormal : t -> median:float -> sigma:float -> float
(** Log-normal parameterised by its median ([exp mu]) and shape [sigma]. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto with minimum [scale] and tail index [shape] (> 0). *)

val bernoulli : t -> p:float -> bool
(** [true] with probability [p]. *)

val zipf : t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[0, n)] with exponent [s], by inversion on a
    precomputed-free approximation (rejection-inversion). Suitable for the
    skewed key popularity used by the Redis workload. *)
