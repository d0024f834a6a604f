(** The bare-metal instance catalogue (Table 3).

    Instance families differ in the compute board's CPU; the last column
    is the maximum number of such boards one BM-Hive server takes, which
    "depends on the server's power supply, internal space, and I/O
    performance" (§4.1). Rate limits follow §4.1/§4.3. *)

type t = {
  name : string;
  cpu : Bm_hw.Cpu_spec.t;
  sockets : int;
  vcpus : int;
  mem_gb : int;
  net_pps : float;
  net_gbit_s : float;
  storage_iops : float;
  storage_mb_s : float;
  max_boards_per_server : int;
}

val catalogue : t list

val eval_instance : t
(** The Xeon E5-2682 v4 instance every §4 experiment uses. *)

val high_frequency : t
(** The Xeon E3-1240 v6 instance (31%% faster single-thread, §4.2). *)

val net_limits : t -> Bm_cloud.Limits.net
val blk_limits : t -> Bm_cloud.Limits.blk

val pp : Format.formatter -> t -> unit
