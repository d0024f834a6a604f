(** Catalogue of the processor SKUs that appear in the paper.

    The paper's compute boards ship Xeon E5/E3, Core i7 and Atom parts
    (§3.3); the vm-based servers use dual high-core-count Xeons (§3.5);
    the base server is a 16-core E5 (§3.3). Single-thread marks follow the
    CPU Mark data the paper cites [8]: Core i7-8086K ≈ 1.6× Xeon
    E5-2699 v4, Xeon E3-1240 v6 ≈ 1.31× Xeon E5-2682 v4 (§4.2). *)

type t = {
  model : string;
  base_ghz : float;  (** base clock, GHz *)
  turbo_ghz : float;  (** max single-core turbo, GHz *)
  cores : int;  (** physical cores per socket *)
  threads : int;  (** hardware threads per socket *)
  single_thread_mark : float;  (** relative single-thread performance, E5-2682 v4 = 1.0 *)
  l3_mb : float;
  mem_channels : int;
  mem_mt_s : int;  (** memory speed in MT/s *)
  tdp_w : float;
}

val xeon_e5_2682_v4 : t
(** The SKU used for all head-to-head experiments in §4. *)

val xeon_e5_2699_v4 : t
val xeon_platinum_8163 : t
(** 24-core part: two sockets = the 96HT vm-based server of §3.5. *)

val xeon_e3_1240_v6 : t
val core_i7_8086k : t
val core_i7_8700 : t
val atom_c3558 : t
val base_server_e5 : t
(** The simplified 16-core base-board Xeon of a BM-Hive server (§3.3). *)

val all : t list

val find : string -> t option
(** Lookup by [model] name. *)

val peak_mem_bw_gb_s : t -> float
(** Theoretical per-socket memory bandwidth: channels × MT/s × 8 bytes. *)
