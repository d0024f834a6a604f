type t = { now : unit -> float; trace : Trace.t option; metrics : Metrics.t option }

let none = { now = (fun () -> 0.0); trace = None; metrics = None }
let create ?trace ?metrics ~now () = { now; trace; metrics }
let of_sim ?trace ?metrics sim = { now = (fun () -> Sim.now sim); trace; metrics }
let now t = t.now ()
let trace t = t.trace
let metrics t = t.metrics
let enabled t = t.trace <> None || t.metrics <> None

let watch_bounded t ~track q =
  if enabled t then
    Sim.Bounded.set_probe q (fun ev ~depth ->
        Trace.counter_opt t.trace ~track "depth" ~now:(t.now ()) (float_of_int depth);
        match ev with
        | `Drop -> Metrics.incr_opt t.metrics (track ^ ".dropped")
        | `Reject -> Metrics.incr_opt t.metrics (track ^ ".rejected")
        | `Enqueue | `Deliver -> ())
