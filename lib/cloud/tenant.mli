(** Multi-tenant accounting: per-tenant quotas and fine-grain metering.

    The innabox multi-tenant design the roadmap points at wants strongly
    isolated per-tenant clusters with fine-grain metering and
    bare-metal-on-demand; the control plane's unit of isolation here is
    the quota (how much a tenant may hold) and the meter (what it has
    consumed). A tenant is admission state, not a datapath object: the
    {!Scheduler} checks {!admit} before placing and {!release} when an
    instance is freed, and the live fleet drives {!meter} as simulated
    time passes. Meters are mirrored into {!Bm_engine.Obs} counters
    (["cloud.tenant.<name>.guest_s" / ".bytes" / ".ios"]), so metric
    cardinality is bounded by the tenant count, never by run length. *)

type quota = {
  max_guests : int;  (** concurrent instances the tenant may hold *)
  max_vcpus : int;  (** concurrent vCPUs across those instances *)
}

type t

val create : ?obs:Bm_engine.Obs.t -> name:string -> quota -> t

val name : t -> string

val admit : t -> vcpus:int -> (unit, string) result
(** Reserve one guest slot and [vcpus] vCPUs against the quota; the
    error names the exhausted dimension and counts as a rejection. *)

val release : t -> vcpus:int -> unit
(** Return one guest slot and [vcpus] vCPUs. Raises [Invalid_argument]
    if the tenant holds no guest (a release/admit imbalance). *)

val guests : t -> int
(** Guest slots currently held. *)

val rejections : t -> int

val meter : t -> guest_ns:float -> bytes:float -> ios:float -> unit
(** Accumulate consumption: guest-nanoseconds of occupancy, bytes moved,
    I/O operations. Also bumps the mirrored [Obs] counters of the
    positive quantities (guest time is recorded in seconds there). *)

val guest_seconds : t -> float
val bytes : t -> float
val ios : t -> float

val row : t -> string list
(** [name; guests; vcpus; guest-s; bytes; ios; rejections] — shaped for
    {!Report}-style tables. *)

val row_header : string list
