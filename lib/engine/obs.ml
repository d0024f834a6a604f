type t = { now : unit -> float; trace : Trace.t option; metrics : Metrics.t option }

let none = { now = (fun () -> 0.0); trace = None; metrics = None }
let create ?trace ?metrics ~now () = { now; trace; metrics }
let of_sim ?trace ?metrics sim = { now = (fun () -> Sim.now sim); trace; metrics }
let now t = t.now ()
let trace t = t.trace
let metrics t = t.metrics
let enabled t = t.trace <> None || t.metrics <> None

(* Probes: the clock is read, and an int converted, only for an
   installed sink. *)

let instant t ~track name =
  match t.trace with Some tr -> Trace.instant tr ~track name ~now:(t.now ()) | None -> ()

let mark t ~n name =
  match t.metrics with Some m -> Metrics.mark m ~n name ~now:(t.now ()) | None -> ()

(* Literal bounds: a [~lo]/[~hi] passed on from a parameter would
   allocate its option on every sample. *)
let depth t ~track ~histogram level =
  match (t.metrics, t.trace) with
  | None, None -> ()
  | m, tr -> (
    let d = float_of_int level in
    (match m with Some m -> Metrics.observe m ~lo:1.0 ~hi:1e4 histogram d | None -> ());
    match tr with Some tr -> Trace.counter tr ~track "depth" ~now:(t.now ()) d | None -> ())

let instant_at t ~track name sim =
  match t.trace with Some tr -> Trace.instant tr ~track name ~now:(Sim.now sim) | None -> ()

let begin_span_at t ~track name sim =
  match t.trace with Some tr -> Trace.begin_span tr ~track name ~now:(Sim.now sim) | None -> ()

let end_span_at t ~track name sim =
  match t.trace with Some tr -> Trace.end_span tr ~track name ~now:(Sim.now sim) | None -> ()

let counter_at t ~track name sim level =
  match t.trace with
  | Some tr -> Trace.counter tr ~track name ~now:(Sim.now sim) (float_of_int level)
  | None -> ()

let mark_at t ~n name sim =
  match t.metrics with Some m -> Metrics.mark m ~n name ~now:(Sim.now sim) | None -> ()

let add t name n =
  match t.metrics with Some m -> Metrics.incr m ~by:(float_of_int n) name | None -> ()

let start_at t sim = match t.metrics with Some _ -> Sim.now sim | None -> 0.0

let observe_since t name sim start =
  match t.metrics with Some m -> Metrics.observe m name (Sim.now sim -. start) | None -> ()

let watch_bounded t ~track q =
  if enabled t then
    Sim.Bounded.set_probe q (fun ev ~depth ->
        Trace.counter_opt t.trace ~track "depth" ~now:(t.now ()) (float_of_int depth);
        match ev with
        | `Drop -> Metrics.incr_opt t.metrics (track ^ ".dropped")
        | `Reject -> Metrics.incr_opt t.metrics (track ^ ".rejected")
        | `Enqueue | `Deliver -> ())
