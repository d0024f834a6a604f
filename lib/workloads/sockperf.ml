open Bm_engine
open Bm_virtio
open Bm_guest

type result = { samples : int; avg_us : float; p50_us : float; p99_us : float; p999_us : float }

type path = Kernel | Dpdk | Icmp

let ping_pong sim ~a ~b ~path ?(count = 2000) () =
  let protocol = match path with Icmp -> Packet.Icmp | Kernel | Dpdk -> Packet.Udp in
  let poll = path = Dpdk in
  a.Instance.set_poll_mode poll;
  b.Instance.set_poll_mode poll;
  let send (inst : Instance.t) pkt =
    match path with
    | Dpdk -> inst.Instance.send_dpdk pkt
    | Kernel | Icmp -> inst.Instance.send pkt
  in
  let size = 64 + Packet.udp_header_bytes in
  (* The responder echoes every ping straight back. *)
  b.Instance.set_rx_handler (fun pkt ->
      ignore
        (send b
           (Packet.make ~id:pkt.Packet.id ~src:b.Instance.endpoint ~dst:pkt.Packet.src ~size
              ~protocol ~sent_at:pkt.Packet.sent_at ())));
  let hist = Stats.Histogram.create ~lo:100.0 ~hi:1e9 ~precision:0.005 () in
  let pong = ref None in
  a.Instance.set_rx_handler (fun pkt ->
      match !pong with
      | Some ivar ->
        pong := None;
        Sim.Ivar.fill ivar pkt
      | None -> ());
  Sim.spawn sim (fun () ->
      for i = 1 to count do
        let ivar = Sim.Ivar.create () in
        pong := Some ivar;
        let t0 = Sim.clock () in
        ignore
          (send a
             (Packet.make ~id:i ~src:a.Instance.endpoint ~dst:b.Instance.endpoint ~size ~protocol
                ~sent_at:t0 ()));
        ignore (Sim.Ivar.read ivar : Packet.t);
        let rtt = Sim.clock () -. t0 in
        Stats.Histogram.add hist (rtt /. 2.0)
      done);
  Sim.run sim;
  {
    samples = Stats.Histogram.count hist;
    avg_us = Stats.Histogram.mean hist /. 1e3;
    p50_us = Stats.Histogram.percentile hist 50.0 /. 1e3;
    p99_us = Stats.Histogram.percentile hist 99.0 /. 1e3;
    p999_us = Stats.Histogram.percentile hist 99.9 /. 1e3;
  }
