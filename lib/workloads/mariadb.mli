(** MariaDB + sysbench OLTP model (Fig. 13/14).

    "The test database for MariaDB contained 16 tables, each with 1
    million records. We used sysbench-1.0.17 with 128 threads." Reads are
    buffer-pool lookups (memory-bound, where EPT overhead bites); writes
    go through a group-committed, {e serialised} redo-log flush to cloud
    storage — the mechanism that amplifies the vm-guest's storage-latency
    disadvantage into the large write-side QPS gaps of Fig. 14. *)

type pattern = Read_only | Write_only | Read_write

type result = {
  pattern : pattern;
  qps : float;
  avg_ms : float;
  p99_ms : float;
  queries : int;
}

val pattern_name : pattern -> string

val serve : Bm_guest.Instance.t -> unit
(** Install the database service: 16 tables × 1M rows (a ~4 GB buffer
    pool), 150 µs per read query, 95 µs per write query, redo flushes
    batched up to 8 queries (innodb-style group commit). *)

val sysbench :
  Bm_engine.Sim.t ->
  client:Bm_guest.Instance.t ->
  server:Bm_guest.Instance.t ->
  pattern:pattern ->
  duration:float ->
  unit ->
  result
(** sysbench with the paper's 128 threads. [Read_write] is
    the OLTP mix (~70%% reads). *)
