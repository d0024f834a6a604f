type t = { now : unit -> float; trace : Trace.t option; metrics : Metrics.t option }

let none = { now = (fun () -> 0.0); trace = None; metrics = None }
let of_sim ?trace ?metrics sim = { now = (fun () -> Sim.now sim); trace; metrics }

(* Probes: the clock is read, and an int converted, only for an
   installed sink. *)

let instant t ~track name =
  match t.trace with Some tr -> Trace.instant tr ~track name ~now:(t.now ()) | None -> ()

let begin_span t ~track name =
  match t.trace with Some tr -> Trace.begin_span tr ~track name ~now:(t.now ()) | None -> ()

let end_span t ~track name =
  match t.trace with Some tr -> Trace.end_span tr ~track name ~now:(t.now ()) | None -> ()

let counter t ~track name level =
  match t.trace with
  | Some tr -> Trace.counter tr ~track name ~now:(t.now ()) (float_of_int level)
  | None -> ()

let add t name n =
  match t.metrics with Some m -> Metrics.incr m ~by:(float_of_int n) name | None -> ()

let add_float t name x ~per =
  match t.metrics with Some m -> Metrics.incr m ~by:(x /. per) name | None -> ()

let mark t ~n name =
  match t.metrics with Some m -> Metrics.mark m ~n name ~now:(t.now ()) | None -> ()

let observe t ?lo ?hi ?precision name v =
  match t.metrics with Some m -> Metrics.observe m ?lo ?hi ?precision name v | None -> ()

let start t = match t.metrics with Some _ -> t.now () | None -> 0.0

let observe_since t name start =
  match t.metrics with Some m -> Metrics.observe m name (t.now () -. start) | None -> ()

(* Literal bounds: a [~lo]/[~hi] passed on from a parameter would
   allocate its option on every sample. *)
let depth t ~track ~histogram level =
  match (t.metrics, t.trace) with
  | None, None -> ()
  | m, tr -> (
    let d = float_of_int level in
    (match m with Some m -> Metrics.observe m ~lo:1.0 ~hi:1e4 histogram d | None -> ());
    match tr with Some tr -> Trace.counter tr ~track "depth" ~now:(t.now ()) d | None -> ())

let watch_bounded t ~track q =
  if t.trace <> None || t.metrics <> None then begin
    let dropped = track ^ ".dropped" and rejected = track ^ ".rejected" in
    Sim.Bounded.set_probe q (fun ev ~depth ->
        counter t ~track "depth" depth;
        match ev with
        | `Drop -> add t dropped 1
        | `Reject -> add t rejected 1
        | `Enqueue | `Deliver -> ())
  end
