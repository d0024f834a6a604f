open Bm_engine
open Bm_virtio
open Bm_guest

type pps_result = {
  offered_pps : float;
  received_pps : float;
  jitter_pps : float;
  dropped : int;
}

let udp_pps sim ~src ~dst ?(senders = 4) ?(batch = 32) ~duration () =
  let received = ref 0 in
  let offered = ref 0 in
  let dropped = ref 0 in
  let interval = Simtime.ms 10.0 in
  let interval_counts = ref [] in
  let current = ref 0 in
  dst.Instance.set_rx_handler (fun pkt ->
      received := !received + pkt.Packet.count;
      current := !current + pkt.Packet.count);
  (* Sample per-interval receive rates for the jitter estimate. *)
  Sim.spawn sim (fun () ->
      let rec tick () =
        Sim.delay interval;
        interval_counts := !current :: !interval_counts;
        current := 0;
        tick ()
      in
      tick ());
  let stop_at = Sim.now sim +. duration in
  let next_id = ref 0 in
  for _ = 1 to senders do
    Sim.spawn sim (fun () ->
        let rec blast () =
          if Sim.clock () < stop_at then begin
            incr next_id;
            let pkt =
              Packet.small_udp ~id:!next_id ~src:src.Instance.endpoint
                ~dst:dst.Instance.endpoint ~count:batch ~sent_at:(Sim.clock ()) ()
            in
            offered := !offered + batch;
            if not (src.Instance.send pkt) then dropped := !dropped + batch;
            blast ()
          end
        in
        blast ())
  done;
  Sim.run ~until:(stop_at +. Simtime.ms 5.0) sim;
  let seconds = Simtime.to_sec duration in
  let rates = List.map (fun c -> float_of_int c /. Simtime.to_sec interval) !interval_counts in
  let jitter =
    match rates with
    | [] | [ _ ] -> 0.0
    | rates ->
      let s = Stats.Summary.create () in
      (* Drop the first and last partial intervals. *)
      let trimmed = List.filteri (fun i _ -> i > 0 && i < List.length rates - 1) rates in
      List.iter (Stats.Summary.add s) (if trimmed = [] then rates else trimmed);
      Stats.Summary.stddev s
  in
  {
    offered_pps = float_of_int !offered /. seconds;
    received_pps = float_of_int !received /. seconds;
    jitter_pps = jitter;
    dropped = !dropped;
  }

type rr_result = {
  transactions : int;
  per_s : float;
  rtt_avg_us : float;
  rtt_p50_us : float;
  rtt_p99_us : float;
  rtt_p999_us : float;
  rtt_min_us : float;
}

(* netperf TCP_RR: one synchronous request/response transaction at a
   time, full round-trip measured at the client (unlike sockperf, which
   halves it into one-way latency). *)
let tcp_rr sim ~src ~dst ?(count = 2000) () =
  (* 64-byte request and response payloads. *)
  let req_size = 64 + Packet.tcp_header_bytes in
  let resp_size = 64 + Packet.tcp_header_bytes in
  dst.Instance.set_rx_handler (fun pkt ->
      ignore
        (dst.Instance.send
           (Packet.make ~id:pkt.Packet.id ~src:dst.Instance.endpoint ~dst:pkt.Packet.src
              ~size:resp_size ~protocol:Packet.Tcp ~sent_at:pkt.Packet.sent_at ())));
  let hist = Stats.Histogram.create ~lo:100.0 ~hi:1e9 ~precision:0.005 () in
  let pending = ref None in
  src.Instance.set_rx_handler (fun pkt ->
      match !pending with
      | Some ivar ->
        pending := None;
        Sim.Ivar.fill ivar pkt
      | None -> ());
  let started = Sim.now sim in
  let finished = ref started in
  Sim.spawn sim (fun () ->
      for i = 1 to count do
        let ivar = Sim.Ivar.create () in
        pending := Some ivar;
        let t0 = Sim.clock () in
        ignore
          (src.Instance.send
             (Packet.make ~id:i ~src:src.Instance.endpoint ~dst:dst.Instance.endpoint
                ~size:req_size ~protocol:Packet.Tcp ~sent_at:t0 ()));
        ignore (Sim.Ivar.read ivar : Packet.t);
        Stats.Histogram.add hist (Sim.clock () -. t0)
      done;
      finished := Sim.clock ());
  Sim.run sim;
  let elapsed = !finished -. started in
  {
    transactions = Stats.Histogram.count hist;
    per_s =
      (if elapsed > 0.0 then float_of_int (Stats.Histogram.count hist) /. elapsed *. 1e9
       else 0.0);
    rtt_avg_us = Stats.Histogram.mean hist /. 1e3;
    rtt_p50_us = Stats.Histogram.percentile hist 50.0 /. 1e3;
    rtt_p99_us = Stats.Histogram.percentile hist 99.0 /. 1e3;
    rtt_p999_us = Stats.Histogram.percentile hist 99.9 /. 1e3;
    rtt_min_us = Stats.Histogram.min hist /. 1e3;
  }

type throughput_result = { gbit_s : float; payload_gbit_s : float; messages : int }

let tcp_stream sim ~src ~dst ?(connections = 64) ?(message_bytes = 1400) ~duration () =
  let received_bytes = ref 0 in
  let payload_bytes = ref 0 in
  let messages = ref 0 in
  let stop_at = Sim.now sim +. duration in
  dst.Instance.set_rx_handler (fun pkt ->
      (* Only arrivals inside the measurement window count. *)
      if Sim.now sim <= stop_at then begin
        received_bytes := !received_bytes + pkt.Packet.size;
        payload_bytes :=
          !payload_bytes + pkt.Packet.size - (Packet.tcp_header_bytes * pkt.Packet.count);
        messages := !messages + pkt.Packet.count
      end);
  let next_id = ref 0 in
  (* Each connection streams messages back-to-back; a burst of 8 messages
     per send models TSO-style batching. *)
  let burst = 8 in
  for _ = 1 to connections do
    Sim.spawn sim (fun () ->
        let rec stream () =
          if Sim.clock () < stop_at then begin
            incr next_id;
            let size = (message_bytes + Packet.tcp_header_bytes) * burst in
            let pkt =
              Packet.make ~id:!next_id ~src:src.Instance.endpoint ~dst:dst.Instance.endpoint
                ~size ~count:burst ~protocol:Packet.Tcp ~sent_at:(Sim.clock ()) ()
            in
            ignore (src.Instance.send pkt);
            stream ()
          end
        in
        stream ())
  done;
  Sim.run ~until:(stop_at +. Simtime.ms 5.0) sim;
  {
    gbit_s = float_of_int !received_bytes *. 8.0 /. duration;
    payload_gbit_s = float_of_int !payload_bytes *. 8.0 /. duration;
    messages = !messages;
  }
