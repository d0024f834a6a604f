(** Plain-text tables for experiment output. *)

val table : ?title:string -> header:string list -> string list list -> string
(** Render an aligned ASCII table. *)

val print : ?title:string -> header:string list -> string list list -> unit

val f1 : float -> string
(** One decimal. *)

val f2 : float -> string
val si : float -> string
(** Engineering notation: 3.2M, 25.0K, 14.7. *)

val pct : float -> string
(** [pct 0.0417] = "4.2%". *)

val check : paper:string -> measured:string -> ok:bool -> string list -> string list
(** Append paper-vs-measured columns and a ✓/✗ marker to a row. *)

val tenant_table : ?title:string -> Bm_cloud.Tenant.t list -> string
(** Per-tenant accounting ({!Bm_cloud.Tenant.row}): guests, vCPUs,
    guest-seconds, bytes, IOPS, quota rejections. *)

val slo_scorecard : ?title:string -> Bm_cloud.Slo.tenant_score list -> string
(** Per-tenant SLO scorecard ({!Bm_cloud.Slo.row}): tier, resolutions,
    aggregate availability / p99 / goodput, compliant windows, met/MISS.
    The game-day determinism smoke diffs this string byte-for-byte. *)

val metrics_table : ?title:string -> Bm_engine.Metrics.t -> string
(** Render a metrics snapshot as an aligned table (one row per
    registered counter/histogram/meter, sorted by name): the table
    [--metrics] prints after a run. *)
