(* Tests for SR-IOV virtual functions: lifecycle FSM unit tests, the
   fault-window behaviours, equal-share DMA arbitration, and the QCheck
   invariant suite — same-seed determinism of all three vf experiments,
   no-loss/no-dup across hot-reassignment under load, and VF-count
   conservation under random attach/reassign histories. *)

open Bm_engine
module Vf = Bm_iobond.Vf
module Profile = Bm_iobond.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let device ?fault ?(vfs = 4) ?(queues = 2) sim =
  Vf.create_device ?fault sim ~profile:Profile.Fpga ~vfs ~queues_per_vf:queues ()

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Lifecycle FSM *)

let test_attach_lowest_free () =
  let sim = Sim.create () in
  let dev = device sim ~vfs:3 in
  check_int "all free" 3 (Vf.free_vfs dev);
  let a = ok (Vf.attach dev ~owner:"a" ()) in
  let b = ok (Vf.attach dev ~owner:"b" ()) in
  check_int "lowest index first" 0 (Vf.id a);
  check_int "then the next" 1 (Vf.id b);
  check_string "owner recorded" "a" (Option.get (Vf.owner a));
  check_bool "attached state" true (Vf.state a = Vf.Attached);
  let c = ok (Vf.attach dev ~owner:"c" ()) in
  check_int "last free slot" 2 (Vf.id c);
  check_bool "exhausted pool refuses" true (Result.is_error (Vf.attach dev ~owner:"e" ()));
  check_bool "conservation" true (Vf.check_conservation dev = Ok ())

let test_submit_rejected_off_fsm () =
  let sim = Sim.create () in
  let dev = device sim ~vfs:1 in
  let a = ok (Vf.attach dev ~owner:"a" ()) in
  let during = ref `Submitted in
  Sim.spawn sim (fun () -> ignore (Vf.reassign a ~owner:"b"));
  (* The reassignment is still replaying configuration at t=1. *)
  Sim.schedule sim ~delay:1.0 (fun () ->
      during :=
        match Vf.submit a ~queue:0 ~bytes_:100 ~deliver:(fun _ -> ()) with
        | `Rejected -> `Rejected
        | `Submitted _ -> `Submitted);
  Sim.run ~until:1_000_000.0 sim;
  check_bool "submit mid-reassignment is rejected" true (!during = `Rejected);
  check_int "rejection counted" 1 (Vf.rejected a)

let test_reassign_requires_attached () =
  let sim = Sim.create () in
  let dev = device sim ~vfs:1 in
  let a = ok (Vf.attach dev ~owner:"a" ()) in
  let busy_err = ref None in
  let live = ref None in
  Sim.spawn sim (fun () ->
      match Vf.reassign a ~owner:"b" with
      | Ok blackout -> live := Some blackout
      | Error e -> Alcotest.fail e);
  (* A second reassignment while the first is mid-transition fails. *)
  Sim.schedule sim ~delay:1.0 (fun () ->
      Sim.spawn sim (fun () ->
          match Vf.reassign a ~owner:"c" with Ok _ -> () | Error e -> busy_err := Some e));
  Sim.run ~until:10_000_000.0 sim;
  check_bool "idle reassignment measured finite blackout" true
    (match !live with Some b -> Float.is_finite b && b >= 0.0 | None -> false);
  check_bool "reassign mid-transition fails" true (!busy_err <> None);
  check_int "one reassignment recorded" 1 (Vf.reassignments dev);
  check_string "new owner recorded" "b" (Option.value ~default:"" (Vf.owner a))

let test_completion_roundtrip () =
  let sim = Sim.create () in
  let dev = device sim ~vfs:2 in
  let a = ok (Vf.attach dev ~owner:"a" ()) in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 8 do
        (match Vf.submit a ~queue:0 ~bytes_:1500 ~deliver:(fun c -> got := c :: !got) with
        | `Submitted _ -> ()
        | `Rejected -> Alcotest.fail "submit rejected on attached VF");
        Sim.delay 500.0
      done);
  Sim.run ~until:10_000_000.0 sim;
  let got = List.rev !got in
  check_int "all delivered" 8 (List.length got);
  List.iteri
    (fun i c ->
      check_int "sequence numbers are dense and monotonic" i c.Vf.c_seq;
      check_string "owner at submit time" "a" c.Vf.c_owner;
      check_bool "device latency is positive" true (c.Vf.c_completed_ns > c.Vf.c_submitted_ns))
    got;
  check_int "nothing in flight" 0 (Vf.in_flight a);
  check_bool "conservation" true (Vf.check_conservation dev = Ok ())

(* A Vf_stall window parks the queue engine, not the submitter: work
   submitted inside the window completes only after it clears. *)
let test_stall_window_delays_completion () =
  let sim = Sim.create () in
  let plan =
    Fault.
      { seed = 1; horizon_ns = 1_000_000.0; events = [ { kind = Vf_stall; at = 0.0; duration_ns = 50_000.0 } ] }
  in
  let fault = Fault.create sim plan in
  Fault.arm fault;
  let dev = device ~fault sim ~vfs:1 in
  let a = ok (Vf.attach dev ~owner:"a" ()) in
  let done_at = ref nan in
  Sim.spawn sim (fun () ->
      ignore (Vf.submit a ~queue:0 ~bytes_:100 ~deliver:(fun c -> done_at := c.Vf.c_completed_ns)));
  Sim.run ~until:1_000_000.0 sim;
  check_bool "completed after the window cleared" true (!done_at >= 50_000.0)

(* ------------------------------------------------------------------ *)
(* Arbitration *)

(* VFs streaming at once split the device's DMA rate equally, the share
   fixed when a transfer starts: a transfer that starts while another
   VF streams takes twice as long as one that starts alone, setup time
   aside. *)
let test_equal_share () =
  let sim = Sim.create () in
  let dev = device sim ~vfs:2 in
  let a = ok (Vf.attach dev ~owner:"a" ()) and b = ok (Vf.attach dev ~owner:"b" ()) in
  let bytes_ = 1_000_000 in
  let alone = ref nan and shared = ref nan in
  let submit vf into =
    match Vf.submit vf ~queue:0 ~bytes_ ~deliver:(fun c -> into := c.Vf.c_completed_ns) with
    | `Submitted _ -> ()
    | `Rejected -> Alcotest.fail "submit rejected on attached VF"
  in
  submit a alone;
  Sim.schedule sim ~delay:1.0 (fun () -> submit b shared);
  Sim.run sim;
  let setup = Profile.dma_setup_ns Profile.Fpga in
  let stream = float_of_int bytes_ *. 8.0 /. Profile.dma_gbit_s Profile.Fpga in
  Alcotest.(check (float 1e-6)) "alone: the whole rate" (setup +. stream) !alone;
  Alcotest.(check (float 1e-6)) "shared: half the rate" (1.0 +. setup +. (2.0 *. stream)) !shared

(* ------------------------------------------------------------------ *)
(* Property suite *)

(* Same seed => byte-identical outcome, for each of the three vf
   experiments. Runs the spec twice back to back. *)
let outcome_fingerprint (o : Bmhive.Experiments.outcome) =
  let rows = List.map (List.map Bmhive.Report.show) o.rows in
  String.concat "\n" (List.map (String.concat "|") (o.Bmhive.Experiments.header :: rows))
  ^ "\n"
  ^ String.concat "\n" o.Bmhive.Experiments.notes

let run_vf_experiment ~id ~seed ~jobs =
  let spec = List.find (fun s -> s.Bmhive.Experiments.id = id) Bmhive.Experiments.all in
  spec.Bmhive.Experiments.run { Bmhive.Experiments.default_ctx with quick = true; seed; jobs }

let prop_experiment_determinism =
  QCheck.Test.make ~name:"vf experiments: same seed => identical outcome" ~count:4
    QCheck.(pair (int_bound 999) (int_bound 2))
    (fun (seed, which) ->
      let id = List.nth [ "vf_scale"; "vf_reassign"; "vf_ablation" ] which in
      let a = run_vf_experiment ~id ~seed ~jobs:1 in
      let b = run_vf_experiment ~id ~seed ~jobs:1 in
      outcome_fingerprint a = outcome_fingerprint b)

let prop_jobs_invariance =
  QCheck.Test.make ~name:"vf experiments: output independent of jobs" ~count:3
    QCheck.(pair (int_bound 999) (int_bound 2))
    (fun (seed, which) ->
      let id = List.nth [ "vf_scale"; "vf_reassign"; "vf_ablation" ] which in
      let a = run_vf_experiment ~id ~seed ~jobs:1 in
      let b = run_vf_experiment ~id ~seed ~jobs:4 in
      outcome_fingerprint a = outcome_fingerprint b)

(* Hot-reassignment under load: every accepted descriptor is delivered
   exactly once — no loss, no duplicates — regardless of how many
   reassignments interleave with the submissions. *)
let prop_no_loss_no_dup =
  QCheck.Test.make ~name:"reassignment under load loses and duplicates nothing" ~count:25
    QCheck.(triple (int_bound 9999) (int_range 2 4) (int_range 1 6))
    (fun (seed, vfs, rounds) ->
      let sim = Sim.create () in
      let dev = device sim ~vfs ~queues:2 in
      let submitted = Hashtbl.create 256 and got = Hashtbl.create 256 in
      let dups = ref 0 in
      let handles =
        Array.init vfs (fun v -> ok (Vf.attach dev ~owner:(Printf.sprintf "t%d" v) ()))
      in
      Array.iteri
        (fun v f ->
          let rng = Rng.create ~seed:(seed + v) in
          Sim.spawn sim (fun () ->
              for i = 0 to 199 do
                (match
                   Vf.submit f ~queue:(i mod 2) ~bytes_:1500 ~deliver:(fun c ->
                       let key = (c.Vf.c_vf, c.Vf.c_queue, c.Vf.c_seq) in
                       if Hashtbl.mem got key then incr dups;
                       Hashtbl.replace got key ())
                 with
                | `Submitted seq -> Hashtbl.replace submitted (Vf.id f, i mod 2, seq) ()
                | `Rejected -> () (* blackout is visible, not silent *));
                Sim.delay (Rng.exponential rng ~mean:1_000.0)
              done))
        handles;
      Sim.spawn sim (fun () ->
          for r = 0 to rounds - 1 do
            Sim.delay 12_000.0;
            ignore (Vf.reassign handles.(r mod vfs) ~owner:(Printf.sprintf "r%d" r))
          done);
      Sim.run ~until:100_000_000.0 sim;
      let lost =
        Hashtbl.fold (fun k () acc -> if Hashtbl.mem got k then acc else k :: acc) submitted []
      in
      lost = [] && !dups = 0 && Vf.check_conservation dev = Ok ())

(* Random attach / reassign / submit histories keep the device's
   structural invariants: free + in-use = total, every VF in exactly
   one state, accepted = delivered + in-flight. *)
let prop_fsm_conservation =
  QCheck.Test.make ~name:"VF count conserved under random histories" ~count:50
    QCheck.(pair (int_bound 9999) (list_of_size Gen.(int_range 1 30) (int_bound 5)))
    (fun (seed, ops) ->
      let sim = Sim.create () in
      let vfs = 4 in
      let dev = device sim ~vfs ~queues:2 in
      let rng = Rng.create ~seed in
      let attached = ref [] in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      Sim.spawn sim (fun () ->
          List.iteri
            (fun i op ->
              (match op with
              | 0 | 1 -> (
                (* attach *)
                match Vf.attach dev ~owner:(Printf.sprintf "o%d" i) () with
                | Ok f -> attached := f :: !attached
                | Error _ -> ())
              | 2 | 3 | 4 ->
                (* reassign a random attached VF *)
                if !attached <> [] then
                  ignore (Vf.reassign (pick !attached) ~owner:(Printf.sprintf "n%d" i))
              | _ ->
                (* submit a little load on a random attached VF *)
                if !attached <> [] then
                  ignore (Vf.submit (pick !attached) ~queue:0 ~bytes_:500 ~deliver:(fun _ -> ())));
              Sim.delay 1_000.0)
            ops);
      Sim.run ~until:1_000_000_000.0 sim;
      let free = Vf.free_vfs dev in
      let in_use = List.length !attached in
      Vf.check_conservation dev = Ok () && free + in_use = vfs)

let suites =
  [
    ( "vf.lifecycle",
      [
        Alcotest.test_case "attach lowest free" `Quick test_attach_lowest_free;
        Alcotest.test_case "submit off-FSM rejected" `Quick test_submit_rejected_off_fsm;
        Alcotest.test_case "reassign requires attached" `Quick test_reassign_requires_attached;
        Alcotest.test_case "completion roundtrip" `Quick test_completion_roundtrip;
        Alcotest.test_case "stall window delays completion" `Quick test_stall_window_delays_completion;
      ] );
    ("vf.arbitration", [ Alcotest.test_case "equal share" `Quick test_equal_share ]);
    ( "vf.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_experiment_determinism;
          prop_jobs_invariance;
          prop_no_loss_no_dup;
          prop_fsm_conservation;
        ] );
  ]
