open Bm_engine

type kind = Cloud_ssd | Local_ssd

type params = {
  net_rtt_ns : float; (* network round trip to the storage node; 0 for local *)
  read_median_ns : float;
  write_median_ns : float;
  sigma : float; (* lognormal shape *)
  tail_p : float; (* probability of a background-management stall *)
  tail_scale_ns : float; (* Pareto scale of the stall *)
  per_kb_ns : float; (* transfer time per KB at the device *)
}

(* Cloud SSD: ~100 us median reads dominated by the network + replica
   path. Local NVMe: ~50 us ("The average latency is only 60 us", §4.3,
   measured through the whole local path). *)
let params_of = function
  | Cloud_ssd ->
    {
      net_rtt_ns = 40_000.0;
      read_median_ns = 60_000.0;
      write_median_ns = 75_000.0;
      sigma = 0.30;
      tail_p = 0.0006;
      tail_scale_ns = 150_000.0;
      per_kb_ns = 250.0;
    }
  | Local_ssd ->
    {
      net_rtt_ns = 0.0;
      read_median_ns = 45_000.0;
      write_median_ns = 30_000.0;
      sigma = 0.25;
      tail_p = 0.0008;
      tail_scale_ns = 120_000.0;
      per_kb_ns = 150.0;
    }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  params : params;
  servers : Sim.Resource.resource;
  mutable rejected : int;
  obs : Obs.t;
}

(* Requests in service at once: a distributed backend serves many, one
   local drive few. *)
let parallelism = function Cloud_ssd -> 128 | Local_ssd -> 16

(* Requests that may wait for a server beyond those in service: deep
   enough that well-behaved workloads never see it, small enough that
   floods fail fast instead of queueing without bound. *)
let queue_capacity = 512

let create ?(obs = Obs.none) sim rng ~kind () =
  {
    sim;
    rng;
    params = params_of kind;
    servers = Sim.Resource.create ~capacity:(parallelism kind);
    rejected = 0;
    obs;
  }

let media_time t ~op ~bytes_ =
  let p = t.params in
  let median = match op with `Read -> p.read_median_ns | `Write | `Flush -> p.write_median_ns in
  let base = Rng.lognormal t.rng ~median ~sigma:p.sigma in
  let tail =
    if Rng.bernoulli t.rng ~p:p.tail_p then Rng.pareto t.rng ~scale:p.tail_scale_ns ~shape:1.5
    else 0.0
  in
  base +. tail +. (p.per_kb_ns *. float_of_int bytes_ /. 1024.0)

let serve_callback t ~op ~bytes_ k =
  let p = t.params in
  let t0 = Obs.start t.obs in
  Obs.counter t.obs ~track:"cloud.blockstore" "queue_depth"
    (Sim.Resource.in_use t.servers + Sim.Resource.waiting t.servers);
  Sim.schedule t.sim ~delay:(p.net_rtt_ns /. 2.0) (fun () ->
      if Sim.Resource.waiting t.servers >= queue_capacity then begin
        (* The storage node's admission queue is full: fail the request
           after the front half of the round trip, drawing no service
           randomness, so the client sees a fast, deterministic EBUSY. *)
        t.rejected <- t.rejected + 1;
        Obs.add t.obs "cloud.blockstore.rejected" 1;
        Sim.schedule t.sim ~delay:(p.net_rtt_ns /. 2.0) (fun () -> k `Rejected)
      end
      else
        Sim.Resource.acquire_callback t.sim t.servers (fun () ->
            Sim.schedule t.sim ~delay:(media_time t ~op ~bytes_) (fun () ->
                Sim.Resource.release t.servers;
                Sim.schedule t.sim ~delay:(p.net_rtt_ns /. 2.0) (fun () ->
                    Obs.add t.obs "cloud.blockstore.served" 1;
                    Obs.observe_since t.obs "cloud.blockstore.serve_ns" t0;
                    k `Served))))

let serve t ~op ~bytes_ = Sim.await (serve_callback t ~op ~bytes_)

let rejected t = t.rejected
