open Bm_engine
open Bm_virtio
open Bm_guest

type result = {
  clients : int;
  value_bytes : int;
  rps : float;
  avg_us : float;
  p99_us : float;
  stability : float;
}

(* The paper's 10M keys, ~120 bytes of dict entry + sds overhead per
   key, plus values. *)
let working_set = float_of_int 10_000_000 *. 160.0

(* CPU per command on the single thread, before the value copy. *)
let base_cpu_ns = 5_500.0

let serve instance =
  let event_loop = Sim.Resource.create ~capacity:1 in
  (* On a vm-guest every value is copied an extra time through the vhost
     path; how that copy lands in the shared LLC depends on the value
     size, perturbing the guest's hash-walk locality — the size-dependent
    fluctuation of Fig. 16 ("likely caused by the cache"). Bare metal
     has no such copy, so its curve stays smooth. *)
  let cache_wobble value_bytes =
    match instance.Instance.kind with
    | Instance.Virtual ->
      let h = (value_bytes * 2654435761) land 0xFFFF in
      1.0 +. (0.08 *. float_of_int h /. 65535.0)
    | Instance.Bare_metal _ | Instance.Physical -> 1.0
  in
  Rpc.attach_server instance ~service:(fun req ->
      let value_bytes = max 4 (req.Packet.size - Packet.tcp_header_bytes - 64) in
      (* Single-threaded: all commands serialise through the event loop.
         Hash lookups walk a random slice of the heap (locality 0.2);
         value copy costs scale with size. *)
      Sim.Resource.with_resource event_loop (fun () ->
          let copy_ns = float_of_int value_bytes /. 16.0 in
          instance.Instance.exec_mem_ns ~working_set ~locality:0.20
            ((base_cpu_ns +. copy_ns) *. cache_wobble value_bytes));
      { Rpc.reply_bytes = value_bytes; reply_packets = max 1 ((value_bytes + 1447) / 1448) })

let benchmark sim ~client ~server ?(clients = 1000) ?(value_bytes = 64) ~requests () =
  let rpc = Rpc.create_client sim client in
  let hist = Stats.Histogram.create ~lo:1_000.0 ~hi:1e10 () in
  let remaining = ref requests in
  let completed = ref 0 in
  let window = ref 0 in
  let samples = ref [] in
  let t_first = ref nan in
  let t_end = ref nan in
  (* Throughput stability samples every 20 ms. *)
  Sim.spawn sim (fun () ->
      let rec tick () =
        Sim.delay (Simtime.ms 20.0);
        if !remaining > 0 then begin
          samples := !window :: !samples;
          window := 0;
          tick ()
        end
      in
      tick ());
  for i = 1 to clients do
    Sim.spawn sim (fun () ->
        (* redis-benchmark establishes connections gradually; a
           synchronized multi-thousand-client volley is not a workload
           any NIC survives without drops. *)
        Sim.delay (Simtime.ms 2.0 +. (float_of_int i *. 10_000.0));
        let rec next () =
          if !remaining > 0 then begin
            decr remaining;
            (match
               Rpc.call rpc ~dst:server.Instance.endpoint ~request_bytes:(64 + value_bytes) ()
             with
            | `Reply latency ->
              Stats.Histogram.add hist latency;
              incr completed;
              incr window;
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
  let stability =
    match !samples with
    | [] | [ _ ] -> 0.0
    | samples ->
      let s = Stats.Summary.create () in
      List.iter (fun c -> Stats.Summary.add s (float_of_int c)) samples;
      if Stats.Summary.mean s > 0.0 then Stats.Summary.stddev s /. Stats.Summary.mean s else 0.0
  in
  {
    clients;
    value_bytes;
    rps = float_of_int !completed /. Simtime.to_sec elapsed;
    avg_us = Stats.Histogram.mean hist /. 1e3;
    p99_us = Stats.Histogram.percentile hist 99.0 /. 1e3;
    stability;
  }
