(** Open-loop overload generators.

    [Netperf] is closed-loop: senders go as fast as the datapath lets
    them, so a blocking rate limiter silently converts overload into
    client-side waiting and the measured "latency" stays flat. These
    drivers are open-loop: every packet/request is stamped with the time
    it was *supposed* to start, latency is measured against that
    schedule, and the generator never slows down to accommodate the
    system under test. Offered load beyond capacity therefore shows up
    either as diverging latency (blocking admission) or as explicit
    sheds/rejections with flat latency (bounded admission) — the
    hockey-stick comparison of the overload experiment. *)

type net_result = {
  offered_pps : float;  (** schedule rate: what the clients wanted to send *)
  goodput_pps : float;  (** packets the receiver actually absorbed *)
  shed : int;  (** packets refused at the sender (rate limiter said no) *)
  p50_us : float;  (** receive latency vs the intended send time *)
  p99_us : float;
  max_lag_ms : float;  (** worst sender slip behind its own schedule *)
}

val udp_flood :
  Bm_engine.Sim.t ->
  src:Bm_guest.Instance.t ->
  dst:Bm_guest.Instance.t ->
  offered_pps:float ->
  duration:float ->
  unit ->
  net_result
(** 12 sender fibers each pace batches of 64 packets so their combined
    schedule is [offered_pps]; a sender that the datapath
    blocks falls behind its schedule and the slip is charged to the
    latency of every packet it sends late. Runs the sim to completion
    (plus a small drain window). *)

type blk_result = {
  offered_iops : float;
  goodput_iops : float;  (** requests that completed successfully *)
  rejected : int;  (** requests abandoned after exhausting retries *)
  retries : int;  (** extra attempts spent on refused requests *)
  blk_p50_us : float;  (** completion latency vs the intended issue time *)
  blk_p99_us : float;
  blk_max_lag_ms : float;
}

val blk_flood :
  Bm_engine.Sim.t ->
  inst:Bm_guest.Instance.t ->
  offered_iops:float ->
  duration:float ->
  unit ->
  blk_result
(** A dispatcher fiber issues 4 KiB reads at exactly [offered_iops],
    each in its own fiber; refused requests ([Instance.blk_try]) retry
    up to twice with exponential backoff starting at 50 µs, then count
    as rejected. *)
