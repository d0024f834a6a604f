(** Online statistics used throughout the benchmarks.

    [Summary] is a Welford accumulator (mean/variance/min/max);
    [Histogram] is an HDR-style log-bucketed histogram giving percentile
    estimates with bounded relative error; [Meter] counts events per unit
    of simulated time. *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of the observations; [nan] when empty. *)

  val stddev : t -> float
  (** Square root of the unbiased sample variance; [0.] with fewer than
      two observations. *)
end

module Histogram : sig
  type t

  val create : ?lo:float -> ?hi:float -> ?precision:float -> unit -> t
  (** [create ~lo ~hi ~precision ()] covers values in [\[lo, hi\]] with
      geometric buckets of relative width [precision] (default 1%%).
      Values outside the range, [infinity] and [neg_infinity] included,
      are clamped into the edge buckets. Defaults: [lo] = 1 (ns), [hi] =
      1e12 (1000 s). Raises [Invalid_argument] unless [0 < lo < hi] and
      [precision > 0], all finite.

      Counts are stored only for the range of buckets observed so far,
      in an array the GC does not scan: an empty histogram costs a few
      words whatever its geometry. *)

  val add : t -> float -> unit
  (** Raises [Invalid_argument] on NaN, which has no bucket. *)

  val add_n : t -> float -> int -> unit
  (** [add_n t v n] records [n] observations of value [v]. *)

  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]] (else [Invalid_argument]).
      Returns the representative value of the bucket containing the
      requested rank, clamped to [\[min, max\]]; [nan] when empty. *)

  val merge : t -> t -> t
  (** Histogram of both inputs' observations. Raises [Invalid_argument]
      unless both have the same bucket geometry ([lo], [precision] and
      bucket count). *)

  val copy : t -> t
  (** Independent histogram with the same geometry and contents. *)

end

module Meter : sig
  type t

  val create : unit -> t
  val mark_n : t -> now:float -> int -> unit
  val count : t -> int

  val rate : t -> float
  (** Events per simulated second over the observation span, i.e.
      [count / (last - first)]. [nan] with fewer than two marks. *)

  val copy : t -> t

  val merge : t -> t -> t
  (** Counts add; the observation span covers both inputs. *)
end
