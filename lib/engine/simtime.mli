(** Simulated time.

    All simulation timestamps and durations are expressed in nanoseconds,
    stored as [float]. A double has 52 bits of mantissa, which keeps
    nanosecond resolution exact for simulations of up to ~52 days — far
    beyond any experiment in this repository. *)

type t = float
(** A point in simulated time, or a duration, in nanoseconds. *)

val us : float -> t
(** [us x] is [x] microseconds. *)

val ms : float -> t
(** [ms x] is [x] milliseconds. *)

val sec : float -> t
(** [sec x] is [x] seconds. *)

val to_sec : t -> float

val to_string : t -> string
