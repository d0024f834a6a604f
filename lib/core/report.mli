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

(** A table cell. Each number keeps the float or int a table shows,
    and its constructor names the format that shows it; {!show} is the
    one place a cell turns into text. *)
type cell =
  | Text of string  (** a label, a paper reference, or several values joined *)
  | Int of int
  | F1 of float  (** {!f1} *)
  | F2 of float  (** {!f2} *)
  | F3 of float  (** three decimals *)
  | Si of float  (** {!si} *)
  | Pct of float  (** {!pct} *)

val show : cell -> string

val check : paper:cell -> measured:cell -> ok:bool -> cell list -> cell list
(** Append the paper and measured cells and an ok/DIFF marker to a row. *)

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
