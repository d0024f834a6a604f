(* Host-speed calibration.

   On a shared host the speed of a core drifts by ten per cent and more
   over a few minutes (frequency scaling, neighbours on the same cores),
   and the drift moves every host time of a run alike: CPU time tracks
   wall time, so it is speed, not preemption. The benchmark therefore
   times a fixed reference job next to every rep and scales the rep's
   host times to a host on which that job takes [reference_s].

   The job uses nothing from this repository, so no change to the
   simulator can speed it up or slow it down. It mixes what the
   simulator's hot paths do: a binary heap of timed entries, hash-table
   updates with small allocations, and an effect handler that suspends
   and resumes a fiber on every step. Its working set is a few MB, well
   below any workload's peak. *)

let reference_s = 0.03

type _ Effect.t += Step : float -> float Effect.t

let job () =
  let n = 4096 in
  let keys = Array.make n 0.0 and vals = Array.make n 0 in
  let size = ref 0 in
  let swap i j =
    let k = keys.(i) and v = vals.(i) in
    keys.(i) <- keys.(j);
    vals.(i) <- vals.(j);
    keys.(j) <- k;
    vals.(j) <- v
  in
  let push k v =
    let i = ref !size in
    keys.(!i) <- k;
    vals.(!i) <- v;
    incr size;
    while !i > 0 && keys.((!i - 1) / 2) > keys.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let k = keys.(0) and v = vals.(0) in
    decr size;
    keys.(0) <- keys.(!size);
    vals.(0) <- vals.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let m = if l < !size && keys.(l) < keys.(!i) then l else !i in
      let m = if r < !size && keys.(r) < keys.(m) then r else m in
      if m = !i then continue := false
      else begin
        swap !i m;
        i := m
      end
    done;
    (k, v)
  in
  let state = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land 0xFFFF
  in
  let table = Hashtbl.create 65536 in
  for i = 0 to n - 1 do
    push (float_of_int (next ())) i
  done;
  let steps () =
    for _ = 1 to 150_000 do
      let k, v = pop () in
      let k' = Effect.perform (Step k) in
      Hashtbl.replace table (v land 0xFFFF) k';
      push (k' +. float_of_int (next () land 1023)) (v + 1)
    done
  in
  Effect.Deep.match_with steps ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Step k -> Some (fun (c : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue c (k +. 1.0))
          | _ -> None);
    };
  ignore (Sys.opaque_identity table)

(* Seconds the reference job takes now. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  job ();
  Unix.gettimeofday () -. t0
