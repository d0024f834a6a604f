(** Redis + redis-benchmark model (Fig. 15/16).

    "we … configured the server with 10M random key-value entries. In
    each test, we queried the server 1M times to get/set the data."
    Redis is single-threaded: every command serialises through one event
    loop doing hash lookups over a large, randomly-accessed heap — the
    worst case for EPT walks — so the vm-guest loses 20–40%% and shows
    visibly less stable throughput (its single thread is the one being
    preempted and cache-disturbed). *)

type result = {
  clients : int;
  value_bytes : int;
  rps : float;
  avg_us : float;
  p99_us : float;
  stability : float;  (** stddev / mean of per-20ms throughput samples *)
}

val serve : Bm_guest.Instance.t -> unit
(** Install the Redis service: a heap sized for 10M keys, 5.5 µs per
    GET on the single thread plus the value copy. *)

val benchmark :
  Bm_engine.Sim.t ->
  client:Bm_guest.Instance.t ->
  server:Bm_guest.Instance.t ->
  ?clients:int ->
  ?value_bytes:int ->
  requests:int ->
  unit ->
  result
(** redis-benchmark: [clients] concurrent connections (default 1000)
    issuing [requests] GETs of [value_bytes] values (default 64). *)
