(** netperf-2.5 models (§4.3).

    The PPS test blasts minimum-size UDP packets between two co-resident
    guests and reports the receive rate and its jitter; the throughput
    test opens 64 TCP connections of 1400-byte messages across the
    100 Gbit/s fabric and reports delivered Gbit/s. *)

type pps_result = {
  offered_pps : float;
  received_pps : float;
  jitter_pps : float;  (** stddev of per-10ms receive rates *)
  dropped : int;
}

val udp_pps :
  Bm_engine.Sim.t ->
  src:Bm_guest.Instance.t ->
  dst:Bm_guest.Instance.t ->
  ?senders:int ->
  ?batch:int ->
  duration:float ->
  unit ->
  pps_result
(** [senders] parallel sender threads (default 4) each transmitting
    [batch]-packet bursts (default 32) as fast as the stack and the rate
    limits allow, for [duration] ns of warm measurement. *)

type rr_result = {
  transactions : int;
  per_s : float;  (** completed transactions per simulated second *)
  rtt_avg_us : float;  (** full round trips, unlike sockperf's one-way *)
  rtt_p50_us : float;
  rtt_p99_us : float;
  rtt_p999_us : float;
  rtt_min_us : float;
}

val tcp_rr :
  Bm_engine.Sim.t ->
  src:Bm_guest.Instance.t ->
  dst:Bm_guest.Instance.t ->
  ?count:int ->
  unit ->
  rr_result
(** netperf TCP_RR: [count] (default 2000) synchronous request/response
    transactions, one outstanding at a time, 64 bytes of payload each
    way plus TCP headers. The
    natural probe for cross-host latency: every added wire hop appears
    twice in each transaction's RTT. Runs the simulation to completion. *)

type throughput_result = {
  gbit_s : float;  (** wire rate, headers included *)
  payload_gbit_s : float;  (** goodput — what netperf reports *)
  messages : int;
}

val tcp_stream :
  Bm_engine.Sim.t ->
  src:Bm_guest.Instance.t ->
  dst:Bm_guest.Instance.t ->
  ?connections:int ->
  ?message_bytes:int ->
  duration:float ->
  unit ->
  throughput_result
(** Paper parameters: 64 connections, 1400-byte messages. *)
