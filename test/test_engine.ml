(* Tests for the discrete-event simulation engine. *)

open Bm_engine

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Simtime *)

let test_time_units () =
  check_float "us" 1_000.0 (Simtime.us 1.0);
  check_float "ms" 1_000_000.0 (Simtime.ms 1.0);
  check_float "sec" 1e9 (Simtime.sec 1.0);
  check_float "roundtrip s" 3.25 (Simtime.to_sec (Simtime.sec 3.25))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Simtime.to_string 500.0);
  Alcotest.(check string) "us" "1.60us" (Simtime.to_string (Simtime.us 1.6));
  Alcotest.(check string) "ms" "2.50ms" (Simtime.to_string (Simtime.ms 2.5));
  Alcotest.(check string) "s" "1.000s" (Simtime.to_string (Simtime.sec 1.0))

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:3.0 ~seq:1 "c";
  Pqueue.add q ~time:1.0 ~seq:2 "a";
  Pqueue.add q ~time:2.0 ~seq:3 "b";
  let pop () = match Pqueue.pop q with Some (_, _, v) -> v | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  check_bool "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  for i = 1 to 100 do
    Pqueue.add q ~time:5.0 ~seq:i i
  done;
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (_, _, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "fifo on equal time" (List.init 100 (fun i -> i + 1)) (drain [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing key order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1e6) small_nat))
    (fun items ->
      let q = Pqueue.create () in
      List.iteri (fun i (t, _) -> Pqueue.add q ~time:(Float.abs t) ~seq:i i) items;
      let rec drain last ok =
        match Pqueue.pop q with
        | None -> ok
        | Some (t, _, _) -> drain t (ok && t >= last)
      in
      drain neg_infinity true)

let test_pqueue_clear_keeps_capacity () =
  let q = Pqueue.create () in
  for i = 1 to 100 do
    Pqueue.add q ~time:(float_of_int i) ~seq:i i
  done;
  let cap = Pqueue.capacity q in
  Pqueue.clear q;
  check_int "emptied" 0 (Pqueue.length q);
  check_int "capacity survives clear" cap (Pqueue.capacity q);
  (* Still a working queue afterwards. *)
  Pqueue.add q ~time:1.0 ~seq:1 42;
  check_bool "usable after clear" true (Pqueue.pop q = Some (1.0, 1, 42))

(* Popped, removed and cleared entries must not pin their values:
   vacated slots are overwritten with a dummy, so the GC can collect
   fibers of completed or cancelled events even while the queue object
   itself stays live. *)
let test_pqueue_releases_popped_values () =
  let q = Pqueue.create () in
  let n = 16 in
  let weak = Weak.create n in
  let slots = Array.make n 0 in
  let key = { Pqueue.at = 0.0 } in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    key.Pqueue.at <- float_of_int i;
    slots.(i) <- Pqueue.push q key ~seq:i v
  done;
  (* Pop the first quarter, remove the last quarter by slot. *)
  for _ = 0 to (n / 4) - 1 do
    ignore (Pqueue.pop q)
  done;
  for i = 3 * n / 4 to n - 1 do
    check_bool "removed" true (Pqueue.remove q ~slot:slots.(i) ~seq:i)
  done;
  let live () =
    Gc.full_major ();
    List.filter (Weak.check weak) (List.init n Fun.id)
  in
  Alcotest.(check (list int)) "only queued values retained"
    (List.init (n / 2) (fun i -> i + (n / 4)))
    (live ());
  Pqueue.clear q;
  Alcotest.(check (list int)) "no value retained" [] (live ());
  ignore (Sys.opaque_identity q)

(* The same through the simulator: a cancelled event's closure (and
   whatever it captures) is collectable while the simulator lives on. *)
let test_sim_releases_cancelled_closures () =
  let sim = Sim.create () in
  let n = 8 in
  let weak = Weak.create n in
  let timers =
    Array.init n (fun i ->
        let v = ref i in
        Weak.set weak i (Some v);
        Sim.schedule_cancellable sim ~delay:(float_of_int (i + 1)) (fun () -> incr v))
  in
  Array.iteri (fun i h -> if i mod 2 = 0 then Sim.cancel sim h) timers;
  Gc.full_major ();
  Alcotest.(check (list int)) "cancelled closures collected" [ 1; 3; 5; 7 ]
    (List.filter (Weak.check weak) (List.init n Fun.id));
  check_int "pending" (n / 2) (Sim.pending_events sim);
  ignore (Sys.opaque_identity sim)

(* Model test: against a sorted association list, any interleaving of
   adds and pops agrees — including the FIFO tie-break at equal times. *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches sorted-list reference" ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      (* kept sorted ascending by (time, seq); seq is unique *)
      let seq = ref 0 in
      let ok = ref true in
      let pop_model () =
        match !model with
        | [] -> None
        | x :: rest ->
          model := rest;
          Some x
      in
      List.iter
        (function
          | Some t ->
            (* coarse times on purpose: ties are the interesting case *)
            let time = float_of_int (t / 10) in
            incr seq;
            Pqueue.add q ~time ~seq:!seq !seq;
            model := List.merge compare !model [ (time, !seq, !seq) ]
          | None -> if Pqueue.pop q <> pop_model () then ok := false)
        ops;
      let rec drain () =
        match Pqueue.pop q with
        | None -> if pop_model () <> None then ok := false
        | got ->
          if got <> pop_model () then ok := false;
          drain ()
      in
      drain ();
      !ok && Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 and a' = Rng.create ~seed:7 in
  let b = Rng.split a in
  ignore (Rng.split a');
  (* After splitting, consuming from [b] must not affect [a]'s stream. *)
  for _ = 1 to 10 do
    ignore (Rng.bits64 b)
  done;
  check_bool "a unchanged by b" true (Rng.bits64 a = Rng.bits64 a')

let test_rng_uniform_range () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.float r 10.0 in
    check_bool "in range" true (x >= 0.0 && x < 10.0);
    let i = Rng.int r 7 in
    check_bool "int range" true (i >= 0 && i < 7)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:3 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Rng.exponential r ~mean:100.0)
  done;
  let m = Stats.Summary.mean s in
  check_bool "mean near 100" true (m > 97.0 && m < 103.0)

let test_rng_normal_moments () =
  let r = Rng.create ~seed:4 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Rng.normal r ~mean:50.0 ~stddev:5.0)
  done;
  check_bool "mean near 50" true (Float.abs (Stats.Summary.mean s -. 50.0) < 0.2);
  check_bool "sd near 5" true (Float.abs (Stats.Summary.stddev s -. 5.0) < 0.2)

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf r ~n:100 ~s:1.1 in
    check_bool "zipf in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank0 most popular" true (counts.(0) > counts.(10) && counts.(10) > 0)

let prop_pareto_above_scale =
  QCheck.Test.make ~name:"pareto samples >= scale" ~count:500
    QCheck.(pair (int_range 1 1000) (int_range 1 10))
    (fun (seed, shape) ->
      let r = Rng.create ~seed in
      let x = Rng.pareto r ~scale:5.0 ~shape:(float_of_int shape) in
      x >= 5.0)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.Summary.count s);
  check_float "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (5.0 /. 3.0)) (Stats.Summary.stddev s)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create ~lo:1.0 ~hi:1e7 ~precision:0.005 () in
  (* 10,000 samples: 1..10000; p50 ~ 5000, p99 ~ 9900. *)
  for i = 1 to 10_000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Stats.Histogram.percentile h 50.0 in
  let p99 = Stats.Histogram.percentile h 99.0 in
  let p999 = Stats.Histogram.percentile h 99.9 in
  check_bool "p50" true (Float.abs (p50 -. 5000.0) /. 5000.0 < 0.02);
  check_bool "p99" true (Float.abs (p99 -. 9900.0) /. 9900.0 < 0.02);
  check_bool "p999" true (Float.abs (p999 -. 9990.0) /. 9990.0 < 0.02);
  check_bool "ordered" true (p50 <= p99 && p99 <= p999)

let test_histogram_clamps () =
  let h = Stats.Histogram.create ~lo:10.0 ~hi:100.0 () in
  Stats.Histogram.add h 1.0;
  Stats.Histogram.add h 1e9;
  check_int "count" 2 (Stats.Histogram.count h);
  check_float "min tracked exactly" 1.0 (Stats.Histogram.min h);
  check_float "max tracked exactly" 1e9 (Stats.Histogram.max h)

(* +inf is clamped into the top bucket like any value above [hi]; it
   used to land in bucket 0 ([int_of_float infinity] is 0 on amd64), so
   [5; 7; inf] read p99 = 7. *)
let test_histogram_infinity_clamps_high () =
  let with_top top =
    let h = Stats.Histogram.create ~lo:1.0 ~hi:100.0 () in
    List.iter (Stats.Histogram.add h) [ 5.0; 7.0; top ];
    h
  in
  let inf = with_top infinity and big = with_top 1e6 in
  check_bool "p99 in the top bucket" true (Stats.Histogram.percentile inf 99.0 >= 100.0);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%g as for a finite outlier" p)
        (Stats.Histogram.percentile big p) (Stats.Histogram.percentile inf p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  check_float "min" 5.0 (Stats.Histogram.min inf);
  check_bool "max" true (Stats.Histogram.max inf = infinity)

let test_histogram_rejects_nan () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "add nan" (Invalid_argument "Stats.Histogram.add: NaN") (fun () ->
      Stats.Histogram.add h nan);
  Alcotest.check_raises "add_n nan" (Invalid_argument "Stats.Histogram.add: NaN") (fun () ->
      Stats.Histogram.add_n h nan 3);
  check_int "nothing counted" 0 (Stats.Histogram.count h);
  check_bool "min untouched" true (Stats.Histogram.min h = infinity)

let test_histogram_create_guards () =
  let rejects name f =
    check_bool name true (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "lo = 0" (fun () -> Stats.Histogram.create ~lo:0.0 ());
  rejects "hi <= lo" (fun () -> Stats.Histogram.create ~lo:10.0 ~hi:10.0 ());
  rejects "precision = 0" (fun () -> Stats.Histogram.create ~precision:0.0 ());
  rejects "nan lo" (fun () -> Stats.Histogram.create ~lo:nan ());
  rejects "infinite hi" (fun () -> Stats.Histogram.create ~hi:infinity ())

(* The histogram against a dense model: the flat bucket array every
   histogram carried before counts went sparse, with the same index,
   percentile scan and merge. Every observable must match bit for bit. *)
module Dense_histogram = struct
  type t = {
    lo : float;
    ratio : float;
    log_ratio : float;
    buckets : int array;
    mutable count : int;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let create ~lo ~hi ~precision =
    let ratio = 1.0 +. precision in
    let log_ratio = log ratio in
    let n = int_of_float (ceil (log (hi /. lo) /. log_ratio)) + 1 in
    { lo; ratio; log_ratio; buckets = Array.make n 0; count = 0; total = 0.0;
      min = infinity; max = neg_infinity }

  let index t v =
    let top = Array.length t.buckets - 1 in
    if v <= t.lo then 0
    else if v = infinity then top
    else Stdlib.min (int_of_float (log (v /. t.lo) /. t.log_ratio)) top

  let add_n t v n =
    let i = index t v in
    t.buckets.(i) <- t.buckets.(i) + n;
    t.count <- t.count + n;
    t.total <- t.total +. (v *. float_of_int n);
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let mean t = if t.count = 0 then nan else t.total /. float_of_int t.count
  let bucket_value t i = t.lo *. (t.ratio ** (float_of_int i +. 0.5))

  let percentile t p =
    if t.count = 0 then nan
    else begin
      let rank = Float.max (p /. 100.0 *. float_of_int t.count) 1.0 in
      let rec scan i seen =
        if i >= Array.length t.buckets then Float.min t.max (bucket_value t (i - 1))
        else begin
          let seen = seen + t.buckets.(i) in
          if float_of_int seen >= rank then Float.max t.min (Float.min t.max (bucket_value t i))
          else scan (i + 1) seen
        end
      in
      scan 0 0
    end

  let merge a b =
    {
      a with
      buckets = Array.mapi (fun i n -> n + b.buckets.(i)) a.buckets;
      count = a.count + b.count;
      total = a.total +. b.total;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }

  let copy t = { t with buckets = Array.copy t.buckets }
end

type hist_op = Add of float | Add_n of float * int | Merge of (float * int) list | Copy

let prop_histogram_matches_dense =
  (* A value relative to [lo, hi]: below lo, inside, above hi, or +inf. *)
  let value_gen =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun u -> `Below u) (float_bound_exclusive 1.0));
          (6, map (fun u -> `Inside u) (float_bound_inclusive 1.0));
          (2, map (fun u -> `Above u) (float_range 1.0 1e3));
          (1, return `Inf);
        ])
  in
  let ops_gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (frequency
           [
             (6, map (fun v -> `Add v) value_gen);
             (2, map2 (fun v n -> `Add_n (v, n)) value_gen (int_range 1 5));
             (1, map (fun l -> `Merge l) (list_size (int_range 0 12) (pair value_gen (int_range 1 3))));
             (1, return `Copy);
           ]))
  in
  let gen =
    QCheck.Gen.(
      quad (float_range (-3.0) 3.0) (float_range 0.5 9.0) (float_range 0.001 0.2) ops_gen)
  in
  let show (lg, span, precision, ops) =
    Printf.sprintf "lo=1e%g hi=lo*1e%g precision=%g, %d ops" lg span precision (List.length ops)
  in
  QCheck.Test.make ~name:"sparse histogram = dense model, bit for bit" ~count:300
    (QCheck.make ~print:show gen)
    (fun (lg, span, precision, ops) ->
      let lo = 10.0 ** lg in
      let hi = lo *. (10.0 ** span) in
      let value = function
        | `Below u -> lo *. u
        | `Inside u -> lo +. ((hi -. lo) *. u)
        | `Above u -> hi *. u
        | `Inf -> infinity
      in
      let ops =
        List.map
          (function
            | `Add v -> Add (value v)
            | `Add_n (v, n) -> Add_n (value v, n)
            | `Merge l -> Merge (List.map (fun (v, n) -> (value v, n)) l)
            | `Copy -> Copy)
          ops
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (a <> a && b <> b) in
      let agree (h, d) =
        Stats.Histogram.count h = d.Dense_histogram.count
        && same (Stats.Histogram.mean h) (Dense_histogram.mean d)
        && same (Stats.Histogram.min h) d.Dense_histogram.min
        && same (Stats.Histogram.max h) d.Dense_histogram.max
        && List.for_all
             (fun p -> same (Stats.Histogram.percentile h p) (Dense_histogram.percentile d p))
             [ 0.0; 1.0; 50.0; 99.0; 99.9; 100.0 ]
      in
      let fresh () =
        (Stats.Histogram.create ~lo ~hi ~precision (), Dense_histogram.create ~lo ~hi ~precision)
      in
      let ok = ref true in
      let snapshots = ref [] in
      let final =
        List.fold_left
          (fun (h, d) op ->
            match op with
            | Add v ->
              Stats.Histogram.add h v;
              Dense_histogram.add_n d v 1;
              (h, d)
            | Add_n (v, n) ->
              Stats.Histogram.add_n h v n;
              Dense_histogram.add_n d v n;
              (h, d)
            | Merge vs ->
              let h', d' = fresh () in
              List.iter
                (fun (v, n) ->
                  Stats.Histogram.add_n h' v n;
                  Dense_histogram.add_n d' v n)
                vs;
              ok := !ok && agree (h', d');
              (Stats.Histogram.merge h h', Dense_histogram.merge d d')
            | Copy ->
              (* Snapshot now, check it after later ops: a copy must not
                 share counts with its source. *)
              snapshots := (Stats.Histogram.copy h, Dense_histogram.copy d) :: !snapshots;
              (h, d))
          (fresh ()) ops
      in
      !ok && agree final && List.for_all agree !snapshots)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 1.0 1e6))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let ps = [ 10.0; 50.0; 90.0; 99.0; 99.9 ] in
      let vs = List.map (Stats.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vs)

let prop_histogram_percentile_within_bounds =
  QCheck.Test.make ~name:"histogram percentile within [min,max]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 1.0 1e9))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let p = Stats.Histogram.percentile h 99.0 in
      p >= Stats.Histogram.min h && p <= Stats.Histogram.max h)

let test_meter_rate () =
  let m = Stats.Meter.create () in
  (* 1000 events over 1 simulated second -> ~1000/s. *)
  for i = 0 to 999 do
    Stats.Meter.mark_n m ~now:(float_of_int i *. 1e6) 1
  done;
  let r = Stats.Meter.rate m in
  check_bool "rate ~1000" true (Float.abs (r -. 1001.0) < 2.0)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay 30.0;
      log := "c" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay 10.0;
      log := "a" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay 20.0;
      log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 30.0 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.spawn sim (fun () ->
      let rec tick () =
        Sim.delay 100.0;
        incr fired;
        tick ()
      in
      tick ());
  Sim.run ~until:1000.0 sim;
  check_int "10 ticks in 1000ns" 10 !fired;
  check_float "clock = until" 1000.0 (Sim.now sim)

let test_sim_nested_fork () =
  let sim = Sim.create () in
  let sum = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 1 to 5 do
        Sim.fork (fun () ->
            Sim.delay (float_of_int i);
            sum := !sum + i)
      done);
  Sim.run sim;
  check_int "all forks ran" 15 !sum

let test_sim_clock_inside () =
  let sim = Sim.create () in
  let seen = ref (-1.0) in
  Sim.spawn sim (fun () ->
      Sim.delay 42.0;
      seen := Sim.clock ());
  Sim.run sim;
  check_float "clock visible inside process" 42.0 !seen

let test_sim_blocking_outside_raises () =
  Alcotest.check_raises "delay outside" Sim.Not_in_simulation (fun () -> Sim.delay 1.0);
  Alcotest.check_raises "clock outside" Sim.Not_in_simulation (fun () ->
      ignore (Sim.clock ()))

let test_ivar () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        let v = Sim.Ivar.read iv in
        got := (i, v, Sim.clock ()) :: !got)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay 50.0;
      Sim.Ivar.fill iv 99);
  Sim.run sim;
  check_int "three readers" 3 (List.length !got);
  List.iter
    (fun (_, v, t) ->
      check_int "value" 99 v;
      check_float "woke at fill time" 50.0 t)
    !got

let test_ivar_double_fill () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      Sim.Ivar.fill iv 1;
      (try Sim.Ivar.fill iv 2 with Invalid_argument _ -> raised := true);
      check_int "first value kept" 1 (Sim.Ivar.read iv));
  Sim.run sim;
  check_bool "second fill rejected" true !raised

let test_resource_mutual_exclusion () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.Resource.with_resource r (fun () ->
            Sim.delay 10.0;
            finish := (i, Sim.clock ()) :: !finish))
  done;
  Sim.run sim;
  let finished = List.rev !finish in
  Alcotest.(check (list (pair int (float 1e-9))))
    "serialized FIFO" [ (1, 10.0); (2, 20.0); (3, 30.0) ] finished

let test_resource_capacity_respected () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:3 in
  let peak = ref 0 in
  for _ = 1 to 10 do
    Sim.spawn sim (fun () ->
        Sim.Resource.acquire r;
        peak := max !peak (Sim.Resource.in_use r);
        Sim.delay 5.0;
        Sim.Resource.release r)
  done;
  Sim.run sim;
  check_int "never above capacity" 3 !peak;
  check_int "all released" 0 (Sim.Resource.in_use r)

let test_resource_no_barging () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let order = ref [] in
  (* p1 holds the unit until t=10; p2 waits from t=1; p3 asks at t=10,
     the instant p1 releases — FIFO admission means p3 must not take
     the freed unit ahead of p2. *)
  Sim.spawn sim (fun () ->
      Sim.Resource.acquire r;
      Sim.delay 10.0;
      Sim.Resource.release r);
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      Sim.Resource.acquire r;
      order := "p2" :: !order;
      Sim.delay 10.0;
      Sim.Resource.release r);
  Sim.spawn sim (fun () ->
      Sim.delay 10.0;
      Sim.Resource.acquire r;
      order := "p3" :: !order;
      Sim.Resource.release r);
  Sim.run sim;
  Alcotest.(check (list string)) "fifo admission" [ "p2"; "p3" ] (List.rev !order)

let test_determinism_same_seed () =
  let trace seed =
    let sim = Sim.create () in
    let r = Rng.create ~seed in
    let log = Buffer.create 64 in
    for i = 1 to 20 do
      Sim.spawn sim (fun () ->
          Sim.delay (Rng.exponential r ~mean:100.0);
          Buffer.add_string log (Printf.sprintf "%d@%.3f;" i (Sim.now sim)))
    done;
    Sim.run sim;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (trace 11) (trace 11);
  check_bool "different seeds differ" true (trace 11 <> trace 12)

(* ------------------------------------------------------------------ *)
(* Token bucket *)

let test_token_bucket_steady_rate () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:1000.0 ~burst:1.0 in
  let meter = Stats.Meter.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 2000 do
        ignore (Token_bucket.take_n tb 1.0);
        Stats.Meter.mark_n meter ~now:(Sim.clock ()) 1
      done);
  Sim.run sim;
  let r = Stats.Meter.rate meter in
  check_bool "limited to ~1000/s" true (Float.abs (r -. 1000.0) /. 1000.0 < 0.01)

let test_token_bucket_burst () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:10.0 ~burst:100.0 in
  let waited = ref nan in
  Sim.spawn sim (fun () ->
      (* The first 100 tokens are free (full bucket). *)
      waited := Token_bucket.take_n tb 100.0;
      check_float "burst free" 0.0 !waited;
      (* The next token must wait 1/10 s. *)
      let w = Token_bucket.take_n tb 1.0 in
      check_bool "then throttled" true (Float.abs (w -. 1e8) < 1e3));
  Sim.run sim

let test_token_bucket_unlimited () =
  let sim = Sim.create () in
  let tb = Token_bucket.unlimited () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 100 do
        check_float "no wait" 0.0 (Token_bucket.take_n tb 1e9)
      done);
  Sim.run sim;
  check_float "time did not advance" 0.0 (Sim.now sim)

(* ------------------------------------------------------------------ *)
(* Two-lane scheduler *)

let test_schedule_negative_raises () =
  let sim = Sim.create () in
  (try
     Sim.schedule sim ~delay:(-1.0) ignore;
     Alcotest.fail "negative delay accepted"
   with Invalid_argument _ -> ());
  try
    Sim.schedule sim ~delay:Float.nan ignore;
    Alcotest.fail "NaN delay accepted"
  with Invalid_argument _ -> ()

let test_event_counters () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:0.0 (fun () -> Sim.schedule sim ~delay:1.0 ignore);
  Sim.schedule sim ~delay:2.0 ignore;
  check_int "pending before run" 2 (Sim.pending_events sim);
  check_int "executed before run" 0 (Sim.events_executed sim);
  Sim.run sim;
  check_int "pending after run" 0 (Sim.pending_events sim);
  check_int "executed after run" 3 (Sim.events_executed sim)

(* The decisive invariant of the hot lane: execution order is exactly
   the (absolute time, schedule-order) sort, no matter how zero-delay
   and timed events interleave — including events scheduled from inside
   other events. The wrapper's seq counter increments in the same order
   as the scheduler's internal one because every schedule goes through
   it, so the sorted record predicts the execution order of a pure
   single-heap scheduler. *)
let prop_two_lane_order =
  QCheck.Test.make ~name:"two-lane order = (time, seq) sort" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 60)
        (pair (int_bound 3) (list_of_size (Gen.int_range 0 8) (int_bound 2))))
    (fun tasks ->
      let sim = Sim.create () in
      let seq = ref 0 in
      let id = ref 0 in
      let scheduled = ref [] in
      let order = ref [] in
      let sched ~delay body =
        incr seq;
        incr id;
        let my_seq = !seq and my_id = !id in
        scheduled := (Sim.now sim +. delay, my_seq, my_id) :: !scheduled;
        Sim.schedule sim ~delay (fun () ->
            order := my_id :: !order;
            body ())
      in
      List.iter
        (fun (d, children) ->
          sched ~delay:(float_of_int d) (fun () ->
              List.iter (fun c -> sched ~delay:(float_of_int c) ignore) children))
        tasks;
      Sim.run sim;
      let expected =
        List.map (fun (_, _, i) -> i) (List.sort compare (List.rev !scheduled))
      in
      List.rev !order = expected)

(* Zero-delay events and heap events at the same instant still obey
   global schedule order across the two lanes. *)
let test_two_lane_tie_break () =
  let sim = Sim.create () in
  let order = ref [] in
  let mark i () = order := i :: !order in
  Sim.schedule sim ~delay:1.0 (fun () ->
      (* At time 1.0: interleave lane and heap events at the current
         instant; seq order must win regardless of the lane. *)
      Sim.schedule sim ~delay:0.0 (mark 1);
      Sim.schedule sim ~delay:0.0 (mark 2);
      Sim.schedule sim ~delay:0.0 (fun () ->
          mark 3 ();
          Sim.schedule sim ~delay:0.0 (mark 6));
      Sim.schedule sim ~delay:0.0 (mark 4);
      Sim.schedule sim ~delay:2.0 (mark 7);
      Sim.schedule sim ~delay:0.0 (mark 5));
  Sim.run sim;
  Alcotest.(check (list int)) "global (time, seq) order" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !order)

let test_sim_stats_lanes () =
  let sim = Sim.create () in
  let ran = ref 0 in
  for _ = 1 to 5 do
    Sim.schedule sim ~delay:0.0 (fun () -> incr ran)
  done;
  for i = 1 to 3 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr ran)
  done;
  Sim.run sim;
  let s = Sim.stats sim in
  check_int "executed" 8 s.Sim.executed;
  check_int "lane events" 5 s.Sim.lane;
  check_int "heap events" 3 s.Sim.heap;
  check_int "executed = lane + heap" s.Sim.executed (s.Sim.lane + s.Sim.heap);
  check_int "pending lane drained" 0 s.Sim.pending_lane;
  check_int "pending heap drained" 0 s.Sim.pending_heap;
  check_bool "lane ring capacity is a power of two" true
    (s.Sim.lane_capacity land (s.Sim.lane_capacity - 1) = 0)

(* ------------------------------------------------------------------ *)
(* Cancellable timers *)

let test_cancel_stale_handle () =
  let sim = Sim.create () in
  let ran = ref [] in
  let mark i () = ran := i :: !ran in
  let a = Sim.schedule_cancellable sim ~delay:1.0 (mark 1) in
  let b = Sim.schedule_cancellable sim ~delay:2.0 (mark 2) in
  Sim.cancel sim b;
  Sim.run sim;
  (* [a] fired and [b] was cancelled: both slots are free again, and the
     next two timers take them. Stale handles must not touch them. *)
  let _c = Sim.schedule_cancellable sim ~delay:1.0 (mark 3) in
  let _d = Sim.schedule_cancellable sim ~delay:1.0 (mark 4) in
  Sim.cancel sim a;
  Sim.cancel sim b;
  Sim.cancel sim b;
  check_int "both still pending" 2 (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check (list int)) "ran" [ 1; 3; 4 ] (List.rev !ran)

(* Random interleavings of plain and cancellable scheduling, cancels and
   bounded runs, driven through one interpreter against two backends:
   the engine, and a reference that keeps pending events in a list
   sorted by (time, seq). Events may themselves arm timers or cancel,
   as an RPC's reply handler does. *)
type cancel_child = Leaf | Child_timer of int | Cancel_from_event of int

type cancel_op =
  | Plain of int * cancel_child
  | Timer of int * cancel_child
  | Cancel of int
  | Run_for of int

type 'h backend = {
  plain : delay:float -> (unit -> unit) -> unit;
  timer : delay:float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  run_for : float option -> unit;  (** [None] drains the agenda *)
}

(* Returns the ids in execution order, and each cancel as (id, number
   of events run before it). *)
let interpret (type h) (b : h backend) ops =
  let order = ref [] and ran = ref 0 and cancels = ref [] in
  let handles : (int, h * int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let cancel_nth k =
    let n = Hashtbl.length handles in
    if n > 0 then begin
      let h, id = Hashtbl.find handles (k mod n) in
      cancels := (id, !ran) :: !cancels;
      b.cancel h
    end
  in
  let rec body id child () =
    order := id :: !order;
    incr ran;
    match child with
    | Leaf -> ()
    | Child_timer d -> arm d Leaf
    | Cancel_from_event k -> cancel_nth k
  and arm d child =
    let id = fresh () in
    let h = b.timer ~delay:(float_of_int d) (body id child) in
    Hashtbl.replace handles (Hashtbl.length handles) (h, id)
  in
  List.iter
    (function
      | Plain (d, child) ->
        let id = fresh () in
        b.plain ~delay:(float_of_int d) (body id child)
      | Timer (d, child) -> arm d child
      | Cancel k -> cancel_nth k
      | Run_for d -> b.run_for (Some (float_of_int d)))
    ops;
  b.run_for None;
  (List.rev !order, List.rev !cancels)

let sorted_list_backend () =
  let now = ref 0.0 and seq = ref 0 and pending = ref [] in
  let insert delay f =
    incr seq;
    pending :=
      List.merge (fun (t, s, _) (t', s', _) -> compare (t, s) (t', s')) !pending
        [ (!now +. delay, !seq, f) ];
    !seq
  in
  let rec run_until u =
    match !pending with
    | (t, _, f) :: rest when t <= u ->
      pending := rest;
      now := t;
      f ();
      run_until u
    | _ -> if !now < u && Float.is_finite u then now := u
  in
  {
    plain = (fun ~delay f -> ignore (insert delay f));
    timer = (fun ~delay f -> insert delay f);
    cancel = (fun s -> pending := List.filter (fun (_, s', _) -> s' <> s) !pending);
    run_for = (function None -> run_until infinity | Some d -> run_until (!now +. d));
  }

let sim_backend sim =
  {
    plain = (fun ~delay f -> Sim.schedule sim ~delay f);
    timer = (fun ~delay f -> Sim.schedule_cancellable sim ~delay f);
    cancel = Sim.cancel sim;
    run_for =
      (function None -> Sim.run sim | Some d -> Sim.run ~until:(Sim.now sim +. d) sim);
  }

let cancel_ops =
  let open QCheck.Gen in
  let delay = int_bound 3 in
  let child =
    frequency
      [
        (3, return Leaf);
        (1, map (fun d -> Child_timer d) delay);
        (1, map (fun k -> Cancel_from_event k) (int_bound 1000));
      ]
  in
  let op =
    frequency
      [
        (3, map2 (fun d c -> Plain (d, c)) delay child);
        (4, map2 (fun d c -> Timer (d, c)) delay child);
        (3, map (fun k -> Cancel k) (int_bound 1000));
        (2, map (fun d -> Run_for d) delay);
      ]
  in
  let print_child = function
    | Leaf -> ""
    | Child_timer d -> Printf.sprintf "->timer %d" d
    | Cancel_from_event k -> Printf.sprintf "->cancel %d" k
  in
  let print = function
    | Plain (d, c) -> Printf.sprintf "plain %d%s" d (print_child c)
    | Timer (d, c) -> Printf.sprintf "timer %d%s" d (print_child c)
    | Cancel k -> Printf.sprintf "cancel %d" k
    | Run_for d -> Printf.sprintf "run %d" d
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 0 80) op)

let prop_cancel_model =
  QCheck.Test.make ~name:"cancellable timers = sorted-list reference" ~count:500 cancel_ops
    (fun ops ->
      let sim = Sim.create () in
      let order, cancels = interpret (sim_backend sim) ops in
      let ref_order, _ = interpret (sorted_list_backend ()) ops in
      (* A cancelled event never runs after its cancel ... *)
      let never_after (id, ran) =
        not (List.mem id (List.filteri (fun i _ -> i >= ran) order))
      in
      List.for_all never_after cancels
      (* ... and the rest run in (time, seq) order, stale cancels
         (fired, already cancelled, slot since reused) changing nothing. *)
      && order = ref_order
      && Sim.pending_events sim = 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "engine.time",
      [
        Alcotest.test_case "unit conversions" `Quick test_time_units;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "engine.pqueue",
      [
        Alcotest.test_case "pops in order" `Quick test_pqueue_order;
        Alcotest.test_case "FIFO on ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "clear keeps capacity" `Quick test_pqueue_clear_keeps_capacity;
        Alcotest.test_case "no space leak" `Quick test_pqueue_releases_popped_values;
      ] );
    qsuite "engine.pqueue.prop" [ prop_pqueue_sorted; prop_pqueue_model ];
    ( "engine.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "uniform ranges" `Quick test_rng_uniform_range;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
      ] );
    qsuite "engine.rng.prop" [ prop_pareto_above_scale ];
    ( "engine.stats",
      [
        Alcotest.test_case "summary basics" `Quick test_summary_basic;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "histogram clamps outliers" `Quick test_histogram_clamps;
        Alcotest.test_case "histogram: +inf in the top bucket" `Quick
          test_histogram_infinity_clamps_high;
        Alcotest.test_case "histogram rejects NaN" `Quick test_histogram_rejects_nan;
        Alcotest.test_case "histogram create guards" `Quick test_histogram_create_guards;
        Alcotest.test_case "meter rate" `Quick test_meter_rate;
      ] );
    qsuite "engine.stats.prop"
      [
        prop_histogram_percentile_monotone;
        prop_histogram_percentile_within_bounds;
        prop_histogram_matches_dense;
      ];
    ( "engine.sim",
      [
        Alcotest.test_case "delay ordering" `Quick test_sim_delay_ordering;
        Alcotest.test_case "run until horizon" `Quick test_sim_until;
        Alcotest.test_case "nested fork" `Quick test_sim_nested_fork;
        Alcotest.test_case "clock inside process" `Quick test_sim_clock_inside;
        Alcotest.test_case "blocking outside raises" `Quick test_sim_blocking_outside_raises;
        Alcotest.test_case "ivar broadcast" `Quick test_ivar;
        Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
        Alcotest.test_case "resource mutual exclusion" `Quick test_resource_mutual_exclusion;
        Alcotest.test_case "resource capacity" `Quick test_resource_capacity_respected;
        Alcotest.test_case "resource no barging" `Quick test_resource_no_barging;
        Alcotest.test_case "deterministic replay" `Quick test_determinism_same_seed;
        Alcotest.test_case "negative delay raises" `Quick test_schedule_negative_raises;
        Alcotest.test_case "event counters" `Quick test_event_counters;
        Alcotest.test_case "two-lane tie break" `Quick test_two_lane_tie_break;
        Alcotest.test_case "per-lane stats" `Quick test_sim_stats_lanes;
        Alcotest.test_case "cancel: stale handles" `Quick test_cancel_stale_handle;
        Alcotest.test_case "cancelled closures collectable" `Quick
          test_sim_releases_cancelled_closures;
      ] );
    qsuite "engine.sim.prop" [ prop_two_lane_order; prop_cancel_model ];
    ( "engine.token_bucket",
      [
        Alcotest.test_case "steady rate" `Quick test_token_bucket_steady_rate;
        Alcotest.test_case "burst then throttle" `Quick test_token_bucket_burst;
        Alcotest.test_case "unlimited" `Quick test_token_bucket_unlimited;
      ] );
  ]

(* Property: a token bucket never over-admits — for any schedule of
   take_n requests, total tokens granted by time T never exceeds
   burst + rate * T. *)
let prop_token_bucket_never_overadmits =
  QCheck.Test.make ~name:"token bucket conserves tokens" ~count:100
    QCheck.(pair (int_range 1 500) (list_of_size (Gen.int_range 1 100) (int_range 1 50)))
    (fun (rate_hz, takes) ->
      let sim = Sim.create () in
      let rate = float_of_int rate_hz in
      let burst = 10.0 in
      let tb = Token_bucket.create ~rate ~burst in
      let granted_by = ref [] in
      Sim.spawn sim (fun () ->
          List.iter
            (fun n ->
              ignore (Token_bucket.take_n tb (float_of_int n));
              granted_by := (Sim.clock (), n) :: !granted_by)
            takes);
      Sim.run sim;
      List.for_all
        (fun (t, _) ->
          let total_by_t =
            List.fold_left
              (fun acc (t', n) -> if t' <= t then acc + n else acc)
              0 !granted_by
          in
          float_of_int total_by_t <= burst +. (rate *. t /. 1e9) +. 1e-6)
        !granted_by)

let () = ignore prop_token_bucket_never_overadmits

let extra_prop_suites =
  [ ("engine.token_bucket.prop", List.map QCheck_alcotest.to_alcotest [ prop_token_bucket_never_overadmits ]) ]

let suites = suites @ extra_prop_suites

(* Trace *)
let test_trace_basics () =
  let tr = Trace.create () in
  Trace.instant tr ~track:"net" "kick" ~now:10.0;
  Trace.begin_span tr ~track:"net" "dma" ~now:20.0;
  Trace.end_span tr ~track:"net" "dma" ~now:70.0;
  Trace.counter tr ~track:"net" "inflight" ~now:80.0 3.0;
  check_int "four events" 4 (List.length (Trace.events tr));
  check_int "track count" 4 (Trace.count tr ~track:"net" ());
  check_int "named count" 1 (Trace.count tr ~track:"net" ~name:"kick" ());
  Alcotest.(check (list (float 1e-9))) "span duration" [ 50.0 ] (Trace.span_durations tr ~track:"net" "dma")

let test_trace_ring_bounds () =
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.instant tr ~track:"t" (string_of_int i) ~now:(float_of_int i)
  done;
  check_int "bounded" 8 (List.length (Trace.events tr));
  check_int "dropped counted" 12 (Trace.dropped tr);
  (* Oldest retained is event 13. *)
  (match Trace.events tr with
  | first :: _ -> Alcotest.(check string) "oldest" "13" first.Trace.name
  | [] -> Alcotest.fail "empty");
  ()

let test_trace_span_in_simulation () =
  let sim = Sim.create () in
  let tr = Trace.create () in
  let obs = Obs.of_sim ~trace:tr sim in
  Sim.spawn sim (fun () ->
      Obs.begin_span obs ~track:"guest" "request";
      Sim.delay 123.0;
      Obs.end_span obs ~track:"guest" "request");
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "span measured sim time" [ 123.0 ]
    (Trace.span_durations tr ~track:"guest" "request")

let trace_suites =
  [
    ( "engine.trace",
      [
        Alcotest.test_case "basics" `Quick test_trace_basics;
        Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
        Alcotest.test_case "span in simulation" `Quick test_trace_span_in_simulation;
      ] );
  ]

let suites = suites @ trace_suites

(* Remaining edge cases. *)
let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:1.0 ~seq:1 "x";
  Pqueue.add q ~time:2.0 ~seq:2 "y";
  check_int "two" 2 (Pqueue.length q);
  Pqueue.clear q;
  check_bool "empty after clear" true (Pqueue.is_empty q);
  check_bool "pop empty" true (Pqueue.pop q = None);
  check_bool "peek empty" true (Pqueue.peek q = None)

exception Boom

let test_with_resource_exception_safe () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let second_ran = ref false in
  Sim.spawn sim (fun () ->
      (try Sim.Resource.with_resource r (fun () -> raise Boom) with Boom -> ());
      check_int "released after raise" 0 (Sim.Resource.in_use r));
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      Sim.Resource.with_resource r (fun () -> second_ran := true));
  Sim.run sim;
  check_bool "resource reusable" true !second_ran

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  for i = 1 to 100 do
    Stats.Histogram.add a (float_of_int i)
  done;
  for i = 101 to 200 do
    Stats.Histogram.add b (float_of_int i)
  done;
  let m = Stats.Histogram.merge a b in
  check_int "merged count" 200 (Stats.Histogram.count m);
  check_float "merged min" 1.0 (Stats.Histogram.min m);
  check_float "merged max" 200.0 (Stats.Histogram.max m);
  let p50 = Stats.Histogram.percentile m 50.0 in
  check_bool "p50 near 100" true (Float.abs (p50 -. 100.0) /. 100.0 < 0.05)

let test_schedule_callback_outside_process () =
  let sim = Sim.create () in
  let ran_at = ref nan in
  Sim.schedule sim ~delay:42.0 (fun () -> ran_at := Sim.now sim);
  Sim.run sim;
  check_float "callback at 42" 42.0 !ran_at

let edge_suites =
  [
    ( "engine.edges",
      [
        Alcotest.test_case "pqueue clear" `Quick test_pqueue_clear;
        Alcotest.test_case "with_resource exception-safe" `Quick test_with_resource_exception_safe;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "bare callback scheduling" `Quick test_schedule_callback_outside_process;
      ] );
  ]

let suites = suites @ edge_suites

(* ------------------------------------------------------------------ *)
(* Bounded queues, resources and the non-blocking token-bucket path
   (the overload-control primitives) *)

(* A fiber receives from the ring queue by awaiting its callback receive. *)
let recv sim q = Sim.await (Sim.Bounded.recv_callback sim q)

let test_bounded_fifo_order () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:2 ~policy:Sim.Bounded.Block () in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for i = 1 to 6 do
        ignore (Sim.Bounded.send q i)
      done);
  Sim.spawn sim (fun () ->
      for _ = 1 to 6 do
        Sim.delay 10.0;
        got := recv sim q :: !got
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO across parks" [ 1; 2; 3; 4; 5; 6 ] (List.rev !got);
  check_int "all delivered" 6 (Sim.Bounded.delivered q);
  check_int "no senders left" 0 (Sim.Bounded.waiting_senders q)

(* The capacity boundary is where wakeups get lost in buggy queues: a
   sender parks the instant the queue fills, and every recv must unpark
   exactly one. N senders through a capacity-1 queue all complete. *)
let test_bounded_no_lost_wakeups () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Block () in
  let n = 50 in
  let sent_ok = ref 0 in
  for i = 1 to n do
    Sim.spawn sim (fun () ->
        match Sim.Bounded.send q i with
        | `Sent -> incr sent_ok
        | `Dropped | `Rejected -> ())
  done;
  let got = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to n do
        Sim.delay 5.0;
        ignore (recv sim q);
        incr got
      done);
  Sim.run sim;
  check_int "every send completed" n !sent_ok;
  check_int "every item received" n !got;
  check_int "no parked senders" 0 (Sim.Bounded.waiting_senders q);
  check_int "queue drained" 0 (Sim.Bounded.length q)

let test_bounded_drop_tail () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:2 ~policy:Sim.Bounded.Drop_tail () in
  Sim.spawn sim (fun () ->
      Alcotest.(check string) "first" "sent" (match Sim.Bounded.send q 1 with `Sent -> "sent" | _ -> "other");
      ignore (Sim.Bounded.send q 2);
      Alcotest.(check string) "overflow" "dropped"
        (match Sim.Bounded.send q 3 with `Dropped -> "dropped" | _ -> "other");
      check_int "oldest survives" 1 (recv sim q));
  Sim.run sim;
  check_int "one drop" 1 (Sim.Bounded.dropped q)

let test_bounded_reject () =
  let sim = Sim.create () in
  let q = Sim.Bounded.create ~capacity:1 ~policy:Sim.Bounded.Reject () in
  Sim.spawn sim (fun () ->
      ignore (Sim.Bounded.send q 1);
      Alcotest.(check string) "refused" "rejected"
        (match Sim.Bounded.send q 2 with `Rejected -> "rejected" | _ -> "other");
      check_int "queue untouched" 1 (recv sim q));
  Sim.run sim;
  check_int "one rejection" 1 (Sim.Bounded.rejected q)

(* Conservation: whatever interleaving of sends and receives runs, no
   item is created or lost —
   sent = delivered + dropped + rejected + length + waiting_senders. *)
let prop_bounded_conservation =
  let policy_of = function
    | 0 -> Sim.Bounded.Block
    | 1 -> Sim.Bounded.Drop_tail
    | _ -> Sim.Bounded.Reject
  in
  QCheck.Test.make ~name:"bounded queue conserves items under every policy" ~count:300
    QCheck.(triple (int_bound 2) (int_range 1 4) (list bool))
    (fun (p, capacity, ops) ->
      let policy = policy_of p in
      let sim = Sim.create () in
      let q = Sim.Bounded.create ~capacity ~policy () in
      List.iteri
        (fun i op ->
          Sim.schedule sim ~delay:(float_of_int i) (fun () ->
              Sim.spawn sim (fun () ->
                  if op then ignore (Sim.Bounded.send q i)
                  else ignore (recv sim q))))
        ops;
      Sim.run sim;
      Sim.Bounded.length q <= capacity
      && Sim.Bounded.sent q
         = Sim.Bounded.delivered q + Sim.Bounded.dropped q + Sim.Bounded.rejected q
           + Sim.Bounded.length q + Sim.Bounded.waiting_senders q)

(* The Queue-based bounded queue the ring replaced, kept as the model:
   items and receivers in [Queue.t]s, and every parked callback wrapped
   in a closure that schedules it at the sender's instant. *)
module Queue_bounded = struct
  type 'a bounded = {
    capacity : int;
    policy : Sim.Bounded.policy;
    items : 'a Queue.t;
    receivers : ('a -> unit) Queue.t;
    parked : ('a * (unit -> unit)) Queue.t;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable rejected : int;
    mutable probe : (Sim.Bounded.probe_event -> depth:int -> unit) option;
  }

  let create ~capacity ~policy () =
    {
      capacity;
      policy;
      items = Queue.create ();
      receivers = Queue.create ();
      parked = Queue.create ();
      sent = 0;
      delivered = 0;
      dropped = 0;
      rejected = 0;
      probe = None;
    }

  let length q = Queue.length q.items
  let sent q = q.sent
  let delivered q = q.delivered
  let dropped q = q.dropped
  let rejected q = q.rejected
  let waiting_senders q = Queue.length q.parked
  let set_probe q f = q.probe <- Some f
  let note q ev = match q.probe with None -> () | Some f -> f ev ~depth:(Queue.length q.items)

  let enqueue q v =
    Queue.add v q.items;
    note q `Enqueue

  let note_delivered q =
    q.delivered <- q.delivered + 1;
    note q `Deliver

  let send q v =
    q.sent <- q.sent + 1;
    match Queue.take_opt q.receivers with
    | Some resume ->
      note_delivered q;
      resume v;
      `Sent
    | None ->
      if Queue.length q.items < q.capacity then begin
        enqueue q v;
        `Sent
      end
      else begin
        match q.policy with
        | Sim.Bounded.Block ->
          Sim.suspend (fun resume -> Queue.add (v, fun () -> resume ()) q.parked);
          `Sent
        | Sim.Bounded.Drop_tail ->
          q.dropped <- q.dropped + 1;
          note q `Drop;
          `Dropped
        | Sim.Bounded.Reject ->
          q.rejected <- q.rejected + 1;
          note q `Reject;
          `Rejected
      end

  let take q =
    let v = Queue.take q.items in
    note_delivered q;
    (match Queue.take_opt q.parked with
    | Some (v, wake) ->
      enqueue q v;
      wake ()
    | None -> ());
    v

  (* The fiber receive the ring's callback receive is checked against:
     its own suspend, independent of [Sim.await]. *)
  let recv _sim q =
    if Queue.is_empty q.items then Sim.suspend (fun resume -> Queue.add resume q.receivers)
    else take q

  let recv_callback t q f =
    if Queue.is_empty q.items then
      Queue.add (fun v -> Sim.schedule t ~delay:0.0 (fun () -> f v)) q.receivers
    else f (take q)
end

module type BOUNDED = sig
  type 'a bounded

  val create : capacity:int -> policy:Sim.Bounded.policy -> unit -> 'a bounded
  val send : 'a bounded -> 'a -> [ `Sent | `Dropped | `Rejected ]
  val recv : Sim.t -> 'a bounded -> 'a
  val recv_callback : Sim.t -> 'a bounded -> ('a -> unit) -> unit
  val length : 'a bounded -> int
  val sent : 'a bounded -> int
  val delivered : 'a bounded -> int
  val dropped : 'a bounded -> int
  val rejected : 'a bounded -> int
  val waiting_senders : 'a bounded -> int
  val set_probe : 'a bounded -> (Sim.Bounded.probe_event -> depth:int -> unit) -> unit
end

(* The ring queue under test; a fiber receives from it through [recv]. *)
module Ring = struct
  include Sim.Bounded

  let recv = recv
end

(* The callback receive against the fiber one: the same random sends
   into a consumer written as recv + delay on the suspend-based model
   queue and as recv_callback + schedule on the ring must deliver the
   same items at the same instants, leave the same queue counters and
   probe notes, and run the same engine events on both lanes. *)
let prop_recv_callback_matches_fiber =
  QCheck.Test.make ~name:"recv_callback consumer = recv fiber consumer" ~count:300
    QCheck.(triple bool (int_range 1 4) (list (pair (int_bound 30) (int_bound 20))))
    (fun (block, capacity, sends) ->
      let run (module B : BOUNDED) ~fiber =
        let sim = Sim.create () in
        let policy = if block then Sim.Bounded.Block else Sim.Bounded.Drop_tail in
        let q = B.create ~capacity ~policy () in
        let notes = ref [] and got = ref [] in
        B.set_probe q (fun ev ~depth -> notes := (ev, depth, Sim.now sim) :: !notes);
        let service = Array.of_list (List.map (fun (_, s) -> float_of_int s) sends) in
        List.iteri
          (fun i (gap, _) ->
            Sim.schedule sim ~delay:(float_of_int (i + gap)) (fun () ->
                Sim.spawn sim (fun () -> ignore (B.send q i))))
          sends;
        let take i = got := (Sim.now sim, i) :: !got in
        if fiber then
          Sim.spawn sim (fun () ->
              let rec loop () =
                let i = B.recv sim q in
                take i;
                Sim.delay service.(i);
                loop ()
              in
              loop ())
        else begin
          let rec serve i =
            take i;
            Sim.schedule sim ~delay:service.(i) (fun () -> B.recv_callback sim q serve)
          in
          Sim.schedule sim ~delay:0.0 (fun () -> B.recv_callback sim q serve)
        end;
        Sim.run sim;
        ( List.rev !got,
          List.rev !notes,
          (B.sent q, B.delivered q, B.dropped q, B.waiting_senders q),
          Sim.stats sim )
      in
      run (module Queue_bounded) ~fiber:true = run (module Ring) ~fiber:false)

(* One step of the script fiber: a send or a fiber receive forked at the
   current instant, an immediate send (never under [Block], which could
   park the script), a one-shot callback receive, a callback server that
   re-parks itself [n] times after a service delay, or one time unit
   passing. *)
type bounded_op = Fork_send | Send_now | Fork_recv | Recv_cb | Serve of int | Tick

let bounded_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return Fork_send);
        (3, return Send_now);
        (2, return Fork_recv);
        (2, return Recv_cb);
        (1, map (fun n -> Serve n) (1 -- 4));
        (2, return Tick);
      ])

let show_bounded_op = function
  | Fork_send -> "fork_send"
  | Send_now -> "send"
  | Fork_recv -> "fork_recv"
  | Recv_cb -> "recv_cb"
  | Serve n -> Printf.sprintf "serve%d" n
  | Tick -> "tick"

(* Run [ops] on a fresh simulator; the log holds every send result,
   every item each receiver got and when, the probe notes, the counters
   after each step, and the engine's stats at the end. Items are floats,
   so the ring's uniform representation is exercised too. *)
let run_bounded (module B : BOUNDED) ~policy ~capacity ops =
  let sim = Sim.create () in
  let q = B.create ~capacity ~policy () in
  let log = Buffer.create 1024 in
  let say fmt = Printf.bprintf log fmt in
  B.set_probe q (fun ev ~depth ->
      let ev = match ev with `Enqueue -> "enq" | `Deliver -> "del" | `Drop -> "drop" | `Reject -> "rej" in
      say " %s/%d" ev depth);
  let next = ref 0.0 and receivers = ref 0 in
  let send () =
    next := !next +. 1.0;
    let v = !next in
    let r = match B.send q v with `Sent -> "sent" | `Dropped -> "dropped" | `Rejected -> "rejected" in
    say " send %h:%s@%h" v r (Sim.now sim)
  in
  let got who v = say " %s got %h@%h" who v (Sim.now sim) in
  let receiver () =
    incr receivers;
    Printf.sprintf "r%d" !receivers
  in
  let rec serve who n v =
    got who v;
    if n > 1 then Sim.schedule sim ~delay:0.5 (fun () -> B.recv_callback sim q (serve who (n - 1)))
  in
  Sim.spawn sim (fun () ->
      List.iter
        (fun op ->
          say "\n%s:" (show_bounded_op op);
          (match op with
          | Fork_send -> Sim.fork send
          | Send_now -> if policy = Sim.Bounded.Block then Sim.fork send else send ()
          | Fork_recv ->
            let who = receiver () in
            Sim.fork (fun () -> got who (B.recv sim q))
          | Recv_cb -> B.recv_callback sim q (got (receiver ()))
          | Serve n -> B.recv_callback sim q (serve (receiver ()) n)
          | Tick -> Sim.delay 1.0);
          say " | len %d sent %d del %d drop %d rej %d park %d" (B.length q) (B.sent q)
            (B.delivered q) (B.dropped q) (B.rejected q) (B.waiting_senders q))
        ops);
  Sim.run sim;
  let st = Sim.stats sim in
  say "\nend@%h len %d sent %d del %d drop %d rej %d park %d events %d lane %d heap %d pending %d/%d cap %d/%d"
    (Sim.now sim) (B.length q) (B.sent q) (B.delivered q) (B.dropped q) (B.rejected q)
    (B.waiting_senders q) st.Sim.executed st.Sim.lane st.Sim.heap st.Sim.pending_lane
    st.Sim.pending_heap st.Sim.lane_capacity st.Sim.heap_capacity;
  Buffer.contents log

let prop_ring_bounded_matches_queue_model =
  let policies = Sim.Bounded.[| Block; Drop_tail; Reject |] in
  QCheck.Test.make ~name:"ring Bounded = Queue-based model, all policies" ~count:500
    (QCheck.make
       ~print:(fun (p, c, ops) ->
         Printf.sprintf "policy %d, capacity %d: %s" p c (String.concat " " (List.map show_bounded_op ops)))
       QCheck.Gen.(triple (0 -- 2) (1 -- 8) (list_size (1 -- 60) bounded_op_gen)))
    (fun (p, capacity, ops) ->
      let policy = policies.(p) in
      run_bounded (module Ring) ~policy ~capacity ops
      = run_bounded (module Queue_bounded) ~policy ~capacity ops)

(* Both parking orders, spelled out: a fiber parked before a callback
   is served first, and a callback parked before a fiber likewise. *)
let test_bounded_receivers_both_orders () =
  List.iter
    (fun ops ->
      Alcotest.(check string)
        (String.concat " " (List.map show_bounded_op ops))
        (run_bounded (module Queue_bounded) ~policy:Sim.Bounded.Drop_tail ~capacity:2 ops)
        (run_bounded (module Ring) ~policy:Sim.Bounded.Drop_tail ~capacity:2 ops))
    [
      [ Fork_recv; Tick; Recv_cb; Send_now; Send_now; Tick ];
      [ Recv_cb; Fork_recv; Tick; Send_now; Send_now; Tick ];
      [ Recv_cb; Send_now; Recv_cb; Fork_recv; Tick; Send_now; Send_now; Tick ];
      [ Serve 3; Fork_recv; Tick; Send_now; Send_now; Send_now; Tick; Tick; Send_now; Tick ];
    ]

(* Nothing that left the queue stays reachable from it: taken and
   dropped items (taken ring cells are nulled) and an item handed to a parked
   callback (the slot is cleared when its event runs). *)
let test_bounded_releases_items () =
  let sim = Sim.create () in
  let n = 12 in
  let weak = Weak.create n in
  let item i =
    let v = ref i in
    Weak.set weak i (Some v);
    v
  in
  let q = Sim.Bounded.create ~capacity:3 ~policy:Sim.Bounded.Drop_tail () in
  (* Through a wrapped ring: 0..2 enter a queue of 3 (3 and 4 are
     dropped), 0..2 are taken, 5..7 enter and stay queued. *)
  for i = 0 to 4 do
    ignore (Sim.Bounded.send q (item i))
  done;
  for _ = 0 to 2 do
    Sim.Bounded.recv_callback sim q ignore
  done;
  for i = 5 to 7 do
    ignore (Sim.Bounded.send q (item i))
  done;
  (* Drain them into a callback server; 8..11 then go straight to its
     slot, one handoff at a time. *)
  let seen = ref 0 in
  let rec serve v =
    seen := !seen + !v;
    Sim.schedule sim ~delay:1.0 (fun () -> Sim.Bounded.recv_callback sim q serve)
  in
  Sim.schedule sim ~delay:0.0 (fun () -> Sim.Bounded.recv_callback sim q serve);
  for i = 8 to 11 do
    Sim.schedule sim ~delay:(float_of_int (10 * i)) (fun () -> ignore (Sim.Bounded.send q (item i)))
  done;
  Sim.run sim;
  check_int "every delivered item seen" (5 + 6 + 7 + 8 + 9 + 10 + 11) !seen;
  check_int "all handed out" 10 (Sim.Bounded.delivered q);
  Gc.full_major ();
  Alcotest.(check (list int)) "no item retained" []
    (List.filter (Weak.check weak) (List.init n Fun.id));
  ignore (Sys.opaque_identity q)

let test_resource_fifo_no_barging () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:1 in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () ->
        Sim.spawn sim (fun () ->
            Sim.Resource.with_resource r (fun () ->
                order := i :: !order;
                Sim.delay 100.0)))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "granted in arrival order" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  check_int "all released" 0 (Sim.Resource.in_use r);
  check_int "none waiting" 0 (Sim.Resource.waiting r)

let test_resource_waiting_count () =
  let sim = Sim.create () in
  let r = Sim.Resource.create ~capacity:2 in
  for _ = 1 to 6 do
    Sim.spawn sim (fun () -> Sim.Resource.with_resource r (fun () -> Sim.delay 50.0))
  done;
  (* Sample between the t=0 acquisitions and the t=50 releases: two
     holders, four queued. *)
  let mid_waiting = ref (-1) and mid_in_use = ref (-1) in
  Sim.schedule sim ~delay:10.0 (fun () ->
      mid_waiting := Sim.Resource.waiting r;
      mid_in_use := Sim.Resource.in_use r);
  Sim.run sim;
  check_int "four queued mid-run" 4 !mid_waiting;
  check_int "two holders mid-run" 2 !mid_in_use;
  check_int "drained" 0 (Sim.Resource.waiting r)

(* try_take_n must never advance time and never leave the bucket
   negative, whatever mix of blocking and non-blocking takes ran
   before it. *)
let prop_try_take_n_never_blocks =
  QCheck.Test.make ~name:"try_take_n never blocks and never goes negative" ~count:300
    QCheck.(pair (float_range 1.0 1000.0) (list (pair bool (float_range 0.0 50.0))))
    (fun (rate, takes) ->
      let sim = Sim.create () in
      let tb = Token_bucket.create ~rate ~burst:(rate /. 10.0) in
      let ok = ref true in
      Sim.spawn sim (fun () ->
          List.iter
            (fun (blocking, n) ->
              if blocking then ignore (Token_bucket.take_n tb n)
              else begin
                let before = Sim.clock () in
                ignore (Token_bucket.try_take_n tb ~now:before n);
                ok := !ok && Sim.clock () = before;
                ok := !ok && Token_bucket.available tb ~now:(Sim.clock ()) >= 0.0
              end)
            takes);
      Sim.run sim;
      !ok)

(* Debt edge: after a blocking take dug the bucket into debt, the
   non-blocking path must refuse everything until the refill catches up,
   then grant again. *)
let test_try_take_n_debt_refill () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:1000.0 ~burst:10.0 in
  Sim.spawn sim (fun () ->
      (* Burn the burst plus 10 of debt; take_n sleeps the deficit off. *)
      ignore (Token_bucket.take_n tb 20.0);
      check_bool "broke even, not positive" false
        (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 1.0);
      (* One token refills every 1 ms at rate 1000/s. *)
      Sim.delay (Simtime.ms 5.0);
      check_bool "refilled tokens grant again" true
        (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 5.0);
      check_bool "but not more than refilled" false
        (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 1.0));
  Sim.run sim

let test_try_take_n_same_timestamp () =
  let sim = Sim.create () in
  let tb = Token_bucket.create ~rate:1000.0 ~burst:8.0 in
  Sim.spawn sim (fun () ->
      let now = Sim.clock () in
      (* Repeated probes at one timestamp see a monotonically shrinking
         bucket — no refill can sneak in between them. *)
      check_bool "first 4" true (Token_bucket.try_take_n tb ~now 4.0);
      check_bool "second 4" true (Token_bucket.try_take_n tb ~now 4.0);
      check_bool "empty now" false (Token_bucket.try_take_n tb ~now 1.0);
      check_float "available is zero" 0.0 (Token_bucket.available tb ~now));
  Sim.run sim

let test_try_take_n_unlimited () =
  let sim = Sim.create () in
  let tb = Token_bucket.unlimited () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        check_bool "always grants" true (Token_bucket.try_take_n tb ~now:(Sim.clock ()) 1e12)
      done);
  Sim.run sim;
  check_float "no time passed" 0.0 (Sim.now sim)

(* The callback acquire against the fiber one: single-unit consumers
   arriving at random instants with random hold times, each written as
   spawn + acquire + delay + release and as a zero-delay event +
   acquire_callback + schedule + release, must be granted at the same
   instants in the same order, see the same in_use/waiting after every
   grant and release, and run the same engine events on both lanes. *)
let prop_acquire_callback_matches_fiber =
  QCheck.Test.make ~name:"acquire_callback consumer = acquire fiber consumer" ~count:300
    QCheck.(pair (int_range 1 4) (list (pair (int_bound 20) (int_bound 30))))
    (fun (capacity, jobs) ->
      let run consumer =
        let sim = Sim.create () in
        let r = Sim.Resource.create ~capacity in
        let log = ref [] in
        let note what i =
          log := (what, i, Sim.now sim, Sim.Resource.in_use r, Sim.Resource.waiting r) :: !log
        in
        List.iteri
          (fun i (gap, hold) ->
            Sim.schedule sim ~delay:(float_of_int gap) (fun () ->
                consumer sim r ~hold:(float_of_int hold)
                  (fun () -> note `Grant i)
                  (fun () -> note `Release i)))
          jobs;
        Sim.run sim;
        (List.rev !log, Sim.stats sim)
      in
      let fiber sim r ~hold granted released =
        Sim.spawn sim (fun () ->
            Sim.Resource.acquire r;
            granted ();
            Sim.delay hold;
            Sim.Resource.release r;
            released ())
      in
      let callback sim r ~hold granted released =
        Sim.schedule sim ~delay:0.0 (fun () ->
            Sim.Resource.acquire_callback sim r (fun () ->
                granted ();
                Sim.schedule sim ~delay:hold (fun () ->
                    Sim.Resource.release r;
                    released ())))
      in
      run fiber = run callback)

(* A device-style job: a setup delay, then a transfer holding a
   one-slot engine. [job_fiber] is the process body the callback
   conversion replaced; [job_chain] is the chain, which processes await. *)
let job_fiber r ~setup ~stream =
  Sim.delay setup;
  Sim.Resource.with_resource r (fun () -> Sim.delay stream)

let job_chain sim r ~setup ~stream k =
  Sim.schedule sim ~delay:setup (fun () ->
      Sim.Resource.acquire_callback sim r (fun () ->
          Sim.schedule sim ~delay:stream (fun () ->
              Sim.Resource.release r;
              k ())))

(* Sim.await over the chain against the fiber body: processes issuing
   random jobs back to back, with think times, each with a sibling
   process that sleeps alongside, must finish every job at the same
   instant in the same order and run the same engine events. *)
let prop_await_chain_matches_fiber =
  QCheck.Test.make ~name:"Sim.await chain = fiber body (with_resource + delay)" ~count:300
    QCheck.(
      pair (int_range 1 3)
        (list_of_size Gen.(int_range 1 5)
           (list_of_size Gen.(int_range 1 6) (triple (int_bound 5) (int_bound 20) (int_bound 10)))))
    (fun (capacity, procs) ->
      let run job =
        let sim = Sim.create () in
        let r = Sim.Resource.create ~capacity in
        let log = ref [] in
        List.iteri
          (fun p jobs ->
            Sim.spawn sim (fun () ->
                List.iteri
                  (fun j (setup, stream, think) ->
                    job sim r ~setup:(float_of_int setup) ~stream:(float_of_int stream);
                    log := (p, j, Sim.clock (), Sim.Resource.in_use r) :: !log;
                    Sim.fork (fun () ->
                        Sim.delay (float_of_int think);
                        log := (p, -j - 1, Sim.clock (), Sim.Resource.waiting r) :: !log);
                    Sim.delay (float_of_int think))
                  jobs))
          procs;
        Sim.run sim;
        (List.rev !log, Sim.stats sim)
      in
      run (fun _ r ~setup ~stream -> job_fiber r ~setup ~stream)
      = run (fun sim r ~setup ~stream -> Sim.await (job_chain sim r ~setup ~stream)))

(* A Block-policy sender written as callbacks parks exactly where a
   sending process would: same deliveries at the same instants, same
   counters, same engine events. *)
let prop_send_callback_matches_fiber =
  QCheck.Test.make ~name:"send_callback sender = Block send fiber" ~count:300
    QCheck.(pair (int_range 1 4) (list (pair (int_bound 10) (int_bound 20))))
    (fun (capacity, sends) ->
      let run sender =
        let sim = Sim.create () in
        let q = Sim.Bounded.create ~capacity ~policy:Sim.Bounded.Block () in
        let log = ref [] in
        let service = Array.of_list (List.map (fun (_, s) -> float_of_int s) sends) in
        List.iteri
          (fun i (gap, _) ->
            Sim.schedule sim ~delay:(float_of_int gap) (fun () ->
                sender sim q i (fun () -> log := (`Sent, i, Sim.now sim) :: !log)))
          sends;
        let rec serve i =
          log := (`Got, i, Sim.now sim) :: !log;
          Sim.schedule sim ~delay:service.(i) (fun () -> Sim.Bounded.recv_callback sim q serve)
        in
        Sim.schedule sim ~delay:5.0 (fun () -> Sim.Bounded.recv_callback sim q serve);
        Sim.run sim;
        (List.rev !log, Sim.Bounded.(sent q, delivered q, waiting_senders q), Sim.stats sim)
      in
      let fiber sim q i sent =
        Sim.spawn sim (fun () ->
            ignore (Sim.Bounded.send q i);
            sent ())
      in
      let callback sim q i sent =
        Sim.schedule sim ~delay:0.0 (fun () ->
            Sim.Bounded.send_callback sim q i (fun (_ : [ `Sent | `Dropped | `Rejected ]) -> sent ()))
      in
      run fiber = run callback)

(* Guard.run_callback against Guard.run: an operation that fails its
   first attempts after a random delay must give the same result, the
   same retry and breaker counts, at the same instant, on the same
   events. *)
let prop_guard_callback_matches_run =
  QCheck.Test.make ~name:"Guard.run_callback = Guard.run" ~count:200
    QCheck.(triple (int_range 1 5) (list (pair (int_bound 6) (int_bound 2_000))) (int_bound 2))
    (fun (max_attempts, runs, threshold) ->
      let policy =
        {
          Fault.Guard.default_policy with
          max_attempts;
          circuit_threshold = threshold;
          circuit_cooldown_ns = 3_000.0;
        }
      in
      let run runner =
        let sim = Sim.create () in
        let g = Fault.Guard.create ~policy sim ~name:"p" in
        let log = ref [] in
        Sim.spawn sim (fun () ->
            List.iter
              (fun (fails, cost) ->
                let tries = ref 0 in
                let r = runner sim g ~fails ~cost:(float_of_int cost) tries in
                log := (r, !tries, Sim.clock (), Fault.Guard.retries g, Fault.Guard.circuit_opens g)
                       :: !log)
              runs);
        Sim.run sim;
        (List.rev !log, Sim.stats sim)
      in
      let outcome tries ~fails = if !tries <= fails then Error "down" else Ok !tries in
      let fiber _ g ~fails ~cost tries =
        Fault.Guard.run g (fun () ->
            incr tries;
            Sim.delay cost;
            outcome tries ~fails)
      in
      let chain sim g ~fails ~cost tries =
        Sim.await
          (Fault.Guard.run_callback g (fun k ->
               incr tries;
               Sim.schedule sim ~delay:cost (fun () -> k (outcome tries ~fails))))
      in
      run fiber = run chain)

let test_await_resumed_twice () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Sim.await (fun k ->
          Sim.schedule sim ~delay:1.0 k;
          Sim.schedule sim ~delay:2.0 k));
  Alcotest.check_raises "second resume" (Invalid_argument "Sim.await: resumed twice") (fun () ->
      Sim.run sim)

let test_await_outside_run () =
  Alcotest.check_raises "await outside" Sim.Not_in_simulation (fun () ->
      Sim.await (fun k -> k ()));
  (* A plain callback is not a process either. *)
  let sim = Sim.create () in
  let raised = ref false in
  Sim.schedule sim ~delay:0.0 (fun () ->
      try Sim.await (fun k -> k ()) with Sim.Not_in_simulation -> raised := true);
  Sim.run sim;
  check_bool "await in a callback" true !raised

let overload_suites =
  [
    ( "engine.bounded",
      [
        Alcotest.test_case "FIFO across parked senders" `Quick test_bounded_fifo_order;
        Alcotest.test_case "no lost wakeups at capacity" `Quick test_bounded_no_lost_wakeups;
        Alcotest.test_case "drop-tail" `Quick test_bounded_drop_tail;
        Alcotest.test_case "reject" `Quick test_bounded_reject;
        Alcotest.test_case "receivers in both parking orders" `Quick
          test_bounded_receivers_both_orders;
        Alcotest.test_case "releases taken and handed-off items" `Quick
          test_bounded_releases_items;
      ] );
    qsuite "engine.bounded.prop"
      [
        prop_bounded_conservation;
        prop_recv_callback_matches_fiber;
        prop_ring_bounded_matches_queue_model;
      ];
    qsuite "engine.bounded.callback.prop" [ prop_send_callback_matches_fiber ];
    ( "engine.resource",
      [
        Alcotest.test_case "FIFO, no barging" `Quick test_resource_fifo_no_barging;
        Alcotest.test_case "waiting count" `Quick test_resource_waiting_count;
      ] );
    qsuite "engine.resource.prop" [ prop_acquire_callback_matches_fiber ];
    ( "engine.await",
      [
        Alcotest.test_case "await resumed twice raises" `Quick test_await_resumed_twice;
        Alcotest.test_case "await outside run raises Not_in_simulation" `Quick
          test_await_outside_run;
      ] );
    qsuite "engine.await.prop" [ prop_await_chain_matches_fiber; prop_guard_callback_matches_run ];
    ( "engine.token_bucket.shed",
      [
        Alcotest.test_case "debt then refill" `Quick test_try_take_n_debt_refill;
        Alcotest.test_case "same-timestamp probes" `Quick test_try_take_n_same_timestamp;
        Alcotest.test_case "unlimited" `Quick test_try_take_n_unlimited;
      ] );
    qsuite "engine.token_bucket.shed.prop" [ prop_try_take_n_never_blocks ];
  ]

let suites = suites @ overload_suites
