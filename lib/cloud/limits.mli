(** Per-instance I/O rate limits (§4.1).

    "The Xeon E5-2682 instance is limited to 4M packets per second (PPS)
    and 10Gbit/s in bandwidth for network access and 25K I/O per second
    (IOPS) for storage access" — plus 300 MB/s of storage bandwidth
    (§4.3). Limits are token buckets with a small burst allowance, as
    production limiters behave. *)

type policy =
  | Block  (** Queue into token-bucket debt: admission always succeeds, late. *)
  | Shed  (** Refuse bursts beyond the available tokens: fail fast, on time. *)

type net = {
  pps : Bm_engine.Token_bucket.t;
  net_bw : Bm_engine.Token_bucket.t;
  mutable net_policy : policy;
  mutable net_shed : int;  (** Packets refused under [Shed]. *)
}

type blk = {
  iops : Bm_engine.Token_bucket.t;
  blk_bw : Bm_engine.Token_bucket.t;
  mutable blk_policy : policy;
  mutable blk_shed : int;  (** Requests refused under [Shed]. *)
}

val cloud_net : ?policy:policy -> unit -> net
(** 4M PPS, 10 Gbit/s. Default policy [Block]. *)

val cloud_blk : ?policy:policy -> unit -> blk
(** 25K IOPS, 300 MB/s. Default policy [Block]. *)

val unlimited_net : unit -> net
val unlimited_blk : unit -> blk

val custom_net : ?policy:policy -> pps:float -> gbit_s:float -> unit -> net
val custom_blk : ?policy:policy -> iops:float -> mb_s:float -> unit -> blk

val ceiling_net : pps:float -> unit -> net
(** A degradation-policy admission ceiling: a [Shed] bucket that binds
    on the packet rate alone (bandwidth is left effectively unlimited
    at 10 Tbit/s), so a per-tier or per-tenant ceiling refuses bursts
    beyond [pps] fail-fast instead of queueing them late. *)

val net_shed : net -> int
val blk_shed : blk -> int

val net_admit : net -> packets:int -> bytes_:int -> bool
(** Under [Block]: suspend the calling process until the burst conforms to
    both limits, then return [true]. Under [Shed]: never block — consume
    from both buckets iff both can cover the burst right now, else refuse
    the whole burst (neither bucket is charged) and return [false]. *)

val blk_admit : blk -> bytes_:int -> bool
(** As {!net_admit} for one storage request of [bytes_]. *)
