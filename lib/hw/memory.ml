open Bm_engine

type xfer = { mutable remaining : float; (* bytes *) done_ : unit Sim.Ivar.ivar }

type t = {
  sim : Sim.t;
  peak : float; (* bytes per ns, aggregate *)
  per_stream : float; (* bytes per ns, single-stream ceiling *)
  mutable tax : float;
  mutable active : xfer list;
  mutable last_update : float;
  mutable version : int;
}

let gb_s_to_bytes_ns gb = gb (* 1 GB/s = 1e9 B / 1e9 ns = 1 B/ns *)

(* STREAM-like access patterns reach 85% of the channels' theoretical
   bandwidth; one stream tops out at 14 GB/s. *)
let efficiency = 0.85
let per_stream_gb_s = 14.0

let create sim ~peak_gb_s =
  assert (peak_gb_s > 0.0);
  {
    sim;
    peak = gb_s_to_bytes_ns (peak_gb_s *. efficiency);
    per_stream = gb_s_to_bytes_ns per_stream_gb_s;
    tax = 0.0;
    active = [];
    last_update = 0.0;
    version = 0;
  }

let of_spec sim spec = create sim ~peak_gb_s:(Cpu_spec.peak_mem_bw_gb_s spec)

let set_tax t f = t.tax <- f

(* Current fair share per stream, in bytes/ns, after the virtualization tax. *)
let share t =
  match t.active with
  | [] -> 0.0
  | active ->
    let n = float_of_int (List.length active) in
    Float.min t.per_stream (t.peak /. n) /. (1.0 +. t.tax)

(* Advance all in-flight transfers to the current instant. *)
let update t =
  let now = Sim.now t.sim in
  let elapsed = now -. t.last_update in
  if elapsed > 0.0 then begin
    let s = share t in
    List.iter (fun x -> x.remaining <- x.remaining -. (elapsed *. s)) t.active;
    t.last_update <- now
  end

let rec reschedule t =
  t.version <- t.version + 1;
  match t.active with
  | [] -> ()
  | active ->
    let s = share t in
    let min_remaining = List.fold_left (fun acc x -> Float.min acc x.remaining) infinity active in
    let eta = Float.max 0.0 (min_remaining /. s) in
    let version = t.version in
    Sim.schedule t.sim ~delay:eta (fun () -> if t.version = version then complete t)

and complete t =
  update t;
  let eps = 1e-6 in
  let finished, running = List.partition (fun x -> x.remaining <= eps) t.active in
  t.active <- running;
  List.iter (fun x -> Sim.Ivar.fill x.done_ ()) finished;
  reschedule t

let transfer t ~bytes_ =
  assert (bytes_ >= 0.0);
  if bytes_ > 0.0 then begin
    update t;
    let x = { remaining = bytes_; done_ = Sim.Ivar.create () } in
    t.active <- x :: t.active;
    reschedule t;
    Sim.Ivar.read x.done_
  end
