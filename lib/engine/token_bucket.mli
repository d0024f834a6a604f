(** Token-bucket rate limiter.

    Cloud instances rate-limit network PPS, network bandwidth and storage
    IOPS with token buckets (§4.1 of the paper). Tokens refill continuously
    at [rate] per second up to [burst]; a request for [n] tokens that
    cannot be satisfied immediately returns the simulated time at which it
    can proceed (lazy refill — no periodic events needed). *)

type t

val create : rate:float -> burst:float -> t
(** [create ~rate ~burst]: [rate] tokens per simulated second, bucket
    capacity [burst] tokens. The bucket starts full. *)

val unlimited : unit -> t
(** A limiter that never delays. *)

val available : t -> now:float -> float
(** [available t ~now] refills lazily and returns the number of tokens
    spendable right now (never negative; [infinity] when unlimited). Use
    it to probe several buckets atomically before consuming from any. *)

val try_take_n : t -> now:float -> float -> bool
(** [try_take_n t ~now n] consumes [n] tokens iff at least [n] are
    available after a lazy refill, else leaves the bucket untouched and
    returns [false]. Never blocks and never takes the balance negative —
    the shedding counterpart of {!take_n}'s unbounded debt. *)

val take_n : t -> float -> float
(** [take_n t n] reserves [n] tokens from inside a simulation process —
    taking the balance into debt if need be — and delays until the
    reservation is covered; returns the wait imposed. *)
