type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

(* Take the top 53 bits for a uniform double in [0, 1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound =
  assert (bound > 0.0);
  unit_float t *. bound

let int t bound =
  assert (bound > 0);
  (* 62 random bits fit a non-negative native int on 64-bit platforms. *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  bits mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let uniform t ~lo ~hi = lo +. (unit_float t *. (hi -. lo))

let exponential t ~mean =
  let u = unit_float t in
  -.mean *. log (1.0 -. u)

let normal t ~mean ~stddev =
  (* Box–Muller; one value per call keeps the stream simple to reason about. *)
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~median ~sigma =
  let g = normal t ~mean:0.0 ~stddev:sigma in
  median *. exp g

let pareto t ~scale ~shape =
  assert (shape > 0.0);
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))

let bernoulli t ~p = unit_float t < p

(* Rejection-inversion sampling for the Zipf distribution (Hörmann &
   Derflinger). Exact for all n and s without precomputing a CDF. *)
let zipf t ~n ~s =
  assert (n > 0);
  if n = 1 then 0
  else begin
    let nf = float_of_int n in
    let h x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv x = if s = 1.0 then exp x else ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s)) in
    let hx0 = h 0.5 -. 1.0 in
    let hn = h (nf +. 0.5) in
    let rec draw () =
      let u = hx0 +. (unit_float t *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = Float.max 1.0 (Float.min nf k) in
      if u >= h (k +. 0.5) -. (k ** -.s) then int_of_float k - 1 else draw ()
    in
    draw ()
  end
