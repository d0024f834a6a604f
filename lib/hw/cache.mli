(** Set-associative last-level cache with per-line owner tracking.

    Used to demonstrate the shared-resource interference that motivates
    BM-Hive (§2.1: "a malicious VM can substantially slow-down other
    co-resident VMs by repeatedly flushing the shared (L3) CPU cache"),
    and its absence when guests own their hardware. Addresses are byte
    addresses; replacement is LRU within a set. *)

type t

type owner = int
(** Opaque tenant identifier for occupancy accounting. *)

val create : size_kb:int -> ways:int -> line_bytes:int -> t
(** [create ~size_kb ~ways ~line_bytes]: [size_kb × 1024] bytes total,
    [ways]-way associative. [size_kb × 1024] must be divisible by
    [ways × line_bytes]. *)

val line_bytes : t -> int

val access : t -> owner:owner -> int -> [ `Hit | `Miss ]
(** [access t ~owner addr] touches the line containing [addr]: returns
    whether it hit, installing/refreshing the line for [owner]. *)

val occupancy : t -> owner:owner -> float
(** Fraction of valid lines currently owned by [owner]. *)

val hit_ratio : t -> owner:owner -> float
(** Lifetime hit ratio of [owner]'s accesses; [nan] if none. *)

val reset_stats : t -> unit

val thrash : t -> owner:owner -> unit
(** Touch every line of every set once — the cache-flushing attack of
    §2.1 expressed as occupancy. *)
