(** sockperf-3.5 / ping latency models (Fig. 10).

    64-byte UDP ping-pong through the default kernel stack, through a
    DPDK kernel-bypass path, and ICMP ping. Reports the one-way message
    latency distribution (sockperf convention: RTT/2). *)

type result = {
  samples : int;
  avg_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

type path = Kernel | Dpdk | Icmp

val ping_pong :
  Bm_engine.Sim.t ->
  a:Bm_guest.Instance.t ->
  b:Bm_guest.Instance.t ->
  path:path ->
  ?count:int ->
  unit ->
  result
(** [count] pings (default 2000) of 64 payload bytes each. *)
