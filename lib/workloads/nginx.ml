open Bm_engine
open Bm_guest

type result = { concurrency : int; requests : int; rps : float; avg_ms : float; p99_ms : float }

(* The stock nginx welcome page: large pages would hit the 10 Gbit/s
   egress limit instead of exercising the request path. *)
let page_bytes = 612
let page_packets = max 1 ((page_bytes + 1447) / 1448)

(* Accept + parse + serve work per request. *)
let cpu_ns = 45_000.0

let serve instance () =
  Rpc.attach_server instance ~service:(fun _req ->
      (* Parse + locate + sendfile of a cached static page; the page body
         touches little memory, so this is plain CPU work. *)
      instance.Instance.exec_ns cpu_ns;
      { Rpc.reply_bytes = page_bytes; reply_packets = page_packets })

let ab sim ~client ~server ~concurrency ~requests =
  let rpc = Rpc.create_client sim client in
  let hist = Stats.Histogram.create ~lo:1_000.0 ~hi:1e10 () in
  let remaining = ref requests in
  let completed = ref 0 in
  let t_first = ref nan in
  let t_end = ref nan in
  for i = 1 to concurrency do
    Sim.spawn sim (fun () ->
        (* Let the server finish posting rx buffers, and ramp the client
           connections up gradually as ab does. *)
        Sim.delay (Simtime.ms 2.0 +. (float_of_int i *. 10_000.0));
        let rec next () =
          if !remaining > 0 then begin
            decr remaining;
            (match Rpc.call rpc ~dst:server.Instance.endpoint ~request_bytes:120 ~handshake:true () with
            | `Reply latency ->
              Stats.Histogram.add hist latency;
              incr completed;
              if Float.is_nan !t_first then t_first := Sim.clock ();
              t_end := Sim.clock ()
            | `Timeout -> ());
            next ()
          end
        in
        next ())
  done;
  Sim.run sim;
  let elapsed = Float.max 1.0 (!t_end -. !t_first) in
  {
    concurrency;
    requests = !completed;
    rps = float_of_int !completed /. Simtime.to_sec elapsed;
    avg_ms = Stats.Histogram.mean hist /. 1e6;
    p99_ms = Stats.Histogram.percentile hist 99.0 /. 1e6;
  }
