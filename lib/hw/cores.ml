open Bm_engine

type t = {
  sim : Sim.t;
  threads : int;
  ghz : float;
  pool : Sim.Resource.resource;
  mutable busy_ns : float; (* accumulated thread-busy time *)
  created : float;
}

let create sim ~spec ?threads () =
  let threads = match threads with Some n -> n | None -> spec.Cpu_spec.threads in
  let ghz = spec.Cpu_spec.base_ghz in
  assert (threads > 0 && ghz > 0.0);
  {
    sim;
    threads;
    ghz;
    pool = Sim.Resource.create ~capacity:threads;
    busy_ns = 0.0;
    created = Sim.now sim;
  }

let ghz t = t.ghz
let thread_count t = t.threads

(* One job: take a thread, hold it for [duration], free it, continue. *)
let occupy t duration k =
  Sim.Resource.acquire_callback t.sim t.pool (fun () ->
      Sim.schedule t.sim ~delay:duration (fun () ->
          t.busy_ns <- t.busy_ns +. duration;
          Sim.Resource.release t.pool;
          k ()))

let execute_ns_callback t ns k =
  assert (ns >= 0.0);
  occupy t ns k

let execute_ns t ns = Sim.await (execute_ns_callback t ns)

let utilization t ~now =
  let span = (now -. t.created) *. float_of_int t.threads in
  if span <= 0.0 then 0.0 else t.busy_ns /. span
