open Bm_engine
open Bm_virtio
open Bm_guest

(* Open-loop load generators for the overload experiment. Unlike
   [Netperf], which lets the datapath pace the senders (closed loop),
   these stamp every unit of work with its *intended* start time and
   measure latency against that schedule. Under a blocking limiter the
   senders fall behind and the measured latency diverges — the classic
   open-loop hockey stick — while a shedding limiter keeps the survivors
   on schedule and turns the excess into explicit refusals. *)

type net_result = {
  offered_pps : float;  (** schedule rate: what the clients wanted to send *)
  goodput_pps : float;  (** packets the receiver actually absorbed *)
  shed : int;  (** packets refused at the sender (rate limiter said no) *)
  p50_us : float;  (** receive latency vs the intended send time *)
  p99_us : float;
  max_lag_ms : float;  (** worst sender slip behind its own schedule *)
}

(* Sender fibers of [udp_flood] and the packets each sends per batch. *)
let senders = 12
let batch = 64

let udp_flood sim ~src ~dst ~offered_pps ~duration () =
  let received = ref 0 and offered = ref 0 and shed = ref 0 in
  let hist = Stats.Histogram.create ~lo:100.0 ~hi:1e12 () in
  let t0 = Sim.now sim in
  let stop_at = t0 +. duration in
  (* Only arrivals inside the measurement window count: a blocking
     limiter drains its backlog long after the window closes, and that
     tail must not inflate goodput. *)
  dst.Instance.set_rx_handler (fun pkt ->
      if Sim.now sim <= stop_at then begin
        received := !received + pkt.Packet.count;
        Stats.Histogram.add_n hist
          (Float.max 1.0 (Sim.now sim -. pkt.Packet.sent_at))
          pkt.Packet.count
      end);
  let per_sender_pps = offered_pps /. float_of_int senders in
  let interval = float_of_int batch /. per_sender_pps *. 1e9 in
  let next_id = ref 0 in
  let max_lag = ref 0.0 in
  for _ = 1 to senders do
    Sim.spawn sim (fun () ->
        let rec blast k =
          let due = t0 +. (float_of_int k *. interval) in
          if due < stop_at then begin
            let now = Sim.clock () in
            if due > now then Sim.delay (due -. now)
            else max_lag := Float.max !max_lag (now -. due);
            incr next_id;
            let pkt =
              Packet.small_udp ~id:!next_id ~src:src.Instance.endpoint
                ~dst:dst.Instance.endpoint ~count:batch ~sent_at:due ()
            in
            offered := !offered + batch;
            if not (src.Instance.send pkt) then shed := !shed + batch;
            blast (k + 1)
          end
        in
        blast 0)
  done;
  Sim.run ~until:(stop_at +. Simtime.ms 2.0) sim;
  let seconds = Simtime.to_sec duration in
  {
    offered_pps = float_of_int !offered /. seconds;
    goodput_pps = float_of_int !received /. seconds;
    shed = !shed;
    p50_us = Stats.Histogram.percentile hist 50.0 /. 1e3;
    p99_us = Stats.Histogram.percentile hist 99.0 /. 1e3;
    max_lag_ms = !max_lag /. 1e6;
  }

type blk_result = {
  offered_iops : float;
  goodput_iops : float;  (** requests that completed successfully *)
  rejected : int;  (** requests abandoned after exhausting retries *)
  retries : int;  (** extra attempts spent on refused requests *)
  blk_p50_us : float;  (** completion latency vs the intended issue time *)
  blk_p99_us : float;
  blk_max_lag_ms : float;
}

(* A refused request retries twice, backing off 50 µs then 100 µs. *)
let max_retries = 2
let retry_backoff_ns = 50_000.0

let blk_flood sim ~inst ~offered_iops ~duration () =
  let completed = ref 0 and rejected = ref 0 and retries = ref 0 and issued = ref 0 in
  let hist = Stats.Histogram.create ~lo:1_000.0 ~hi:1e12 () in
  let t0 = Sim.now sim in
  let stop_at = t0 +. duration in
  let interval = 1e9 /. offered_iops in
  let max_lag = ref 0.0 in
  (* One dispatcher fiber keeps the arrival process on schedule; each
     request runs in its own fiber so a blocking limiter stalls only
     that request, never the arrivals (open loop). *)
  Sim.spawn sim (fun () ->
      let rec dispatch k =
        let due = t0 +. (float_of_int k *. interval) in
        if due < stop_at then begin
          let now = Sim.clock () in
          if due > now then Sim.delay (due -. now)
          else max_lag := Float.max !max_lag (now -. due);
          incr issued;
          Sim.spawn sim (fun () ->
              let rec attempt tries =
                match inst.Instance.blk_try ~op:`Read ~bytes_:4096 with
                | Ok _ ->
                  (* Same window rule as the network side: completions
                     that straggle in after the window are not goodput. *)
                  if Sim.clock () <= stop_at then begin
                    incr completed;
                    Stats.Histogram.add hist (Float.max 1.0 (Sim.clock () -. due))
                  end
                | Error (`Limited | `Busy | `Rejected) when tries < max_retries ->
                  incr retries;
                  Sim.delay (retry_backoff_ns *. float_of_int (1 lsl tries));
                  attempt (tries + 1)
                | Error _ -> incr rejected
              in
              attempt 0);
          dispatch (k + 1)
        end
      in
      dispatch 0);
  Sim.run ~until:(stop_at +. Simtime.ms 2.0) sim;
  let seconds = Simtime.to_sec duration in
  {
    offered_iops = float_of_int !issued /. seconds;
    goodput_iops = float_of_int !completed /. seconds;
    rejected = !rejected;
    retries = !retries;
    blk_p50_us = Stats.Histogram.percentile hist 50.0 /. 1e3;
    blk_p99_us = Stats.Histogram.percentile hist 99.0 /. 1e3;
    blk_max_lag_ms = !max_lag /. 1e6;
  }
