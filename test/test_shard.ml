(* Tests for the conservative sharded scheduler (Bm_engine.Shard).

   The workhorse is a synthetic host-partitioned traffic model whose
   observables are commutative (per-host packet counts and xor
   checksums over arrival timestamps), so they must come out
   byte-identical whatever the shard count, the domain count, or
   whether the plain sequential [Sim] runs the whole thing — the
   arrival times depend only on (src, dst) host pairs, never on the
   partitioning. *)

open Bm_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Synthetic traffic model *)

type plan = {
  hosts : int;
  base_lookahead : float;  (* min cross-host latency = conduit lookahead *)
  packets : (float * int) array array;  (* per src host: (send time, dst) *)
}

let make_plan ~seed ~hosts ~per_host =
  let rng = Rng.create ~seed in
  let packets =
    Array.init hosts (fun _ ->
        let r = Rng.split rng in
        Array.init per_host (fun _ ->
            let at = Rng.float r 1000.0 in
            let dst = Rng.int r hosts in
            (at, dst)))
  in
  { hosts; base_lookahead = 10.0; packets }

(* Pairwise latency depends only on host identities — NOT on the
   sharding — and never dips below the conduit lookahead. *)
let latency plan ~src ~dst =
  plan.base_lookahead +. float_of_int (((src * 7) + (dst * 13)) mod 23)

let mix time_bits tag =
  let x = Int64.add (Int64.mul 0x9E3779B97F4A7C15L time_bits) (Int64.of_int tag) in
  Int64.logxor x (Int64.shift_right_logical x 31)

type outcome = { counts : int array; sums : int64 array }

let record o ~dst ~src ~k ~now =
  o.counts.(dst) <- o.counts.(dst) + 1;
  o.sums.(dst) <- Int64.logxor o.sums.(dst) (mix (Int64.bits_of_float now) ((src * 1021) + k))

let outcome_equal a b = a.counts = b.counts && a.sums = b.sums

(* Reference: the whole fleet on one plain [Sim.t], no Shard involved. *)
let run_reference plan =
  let sim = Sim.create () in
  let o = { counts = Array.make plan.hosts 0; sums = Array.make plan.hosts 0L } in
  Array.iteri
    (fun src pkts ->
      Array.iteri
        (fun k (at, dst) ->
          Sim.schedule sim ~delay:at (fun () ->
              Sim.schedule sim
                ~delay:(latency plan ~src ~dst)
                (fun () -> record o ~dst ~src ~k ~now:(Sim.now sim))))
        pkts)
    plan.packets;
  Sim.run sim;
  o

(* The same model on [shards] shards (host h lives on shard h mod
   shards), full conduit mesh. *)
let run_sharded ?(domains = 1) ~shards plan =
  let t = Shard.create ~shards () in
  let o = { counts = Array.make plan.hosts 0; sums = Array.make plan.hosts 0L } in
  let shard_of h = h mod shards in
  let conduits =
    Array.init shards (fun a ->
        Array.init shards (fun b ->
            if a = b then None
            else Some (Shard.conduit t ~src:a ~dst:b ~lookahead_ns:plan.base_lookahead)))
  in
  Array.iteri
    (fun src pkts ->
      let src_sim = Shard.sim t (shard_of src) in
      Array.iteri
        (fun k (at, dst) ->
          Sim.schedule src_sim ~delay:at (fun () ->
              let lat = latency plan ~src ~dst in
              let deliver () =
                record o ~dst ~src ~k ~now:(Sim.now (Shard.sim t (shard_of dst)))
              in
              if shard_of dst = shard_of src then Sim.schedule src_sim ~delay:lat deliver
              else Shard.send t (Option.get conduits.(shard_of src).(shard_of dst)) ~delay:lat deliver))
        pkts)
    plan.packets;
  Shard.run ~domains t;
  (o, Shard.stats t)

(* ------------------------------------------------------------------ *)
(* QCheck: byte-identical across shard counts, domain counts, and vs
   the plain sequential engine, on random traffic plans. *)

let prop_shard_identical =
  QCheck.Test.make ~name:"shards {1,2,4} x domains {1,2} == sequential Sim" ~count:40
    QCheck.(triple (int_range 2 12) (int_range 1 12) small_nat)
    (fun (hosts, per_host, seed) ->
      let plan = make_plan ~seed ~hosts ~per_host in
      let reference = run_reference plan in
      List.for_all
        (fun (shards, domains) ->
          let got, stats = run_sharded ~domains ~shards plan in
          outcome_equal reference got
          && stats.Shard.shards = shards
          && (shards > 1 || stats.Shard.cross_messages = 0))
        [ (1, 1); (2, 1); (2, 2); (4, 1); (4, 2) ])

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let soak_plan () = make_plan ~seed:2020 ~hosts:8 ~per_host:40

let test_shard_matches_reference () =
  let plan = soak_plan () in
  let reference = run_reference plan in
  let got1, stats1 = run_sharded ~shards:1 plan in
  let got4, stats4 = run_sharded ~shards:4 plan in
  check_bool "shards=1 == reference" true (outcome_equal reference got1);
  check_bool "shards=4 == reference" true (outcome_equal reference got4);
  check_int "shards=1 sends nothing cross-shard" 0 stats1.Shard.cross_messages;
  check_bool "shards=4 crosses" true (stats4.Shard.cross_messages > 0);
  check_bool "windows bounded by lookahead" true
    (stats4.Shard.min_window_ns = plan.base_lookahead)

let test_domains_dont_matter () =
  let plan = soak_plan () in
  let got1, _ = run_sharded ~shards:4 ~domains:1 plan in
  let got2, _ = run_sharded ~shards:4 ~domains:2 plan in
  let got4, _ = run_sharded ~shards:4 ~domains:4 plan in
  check_bool "domains=2 == domains=1" true (outcome_equal got1 got2);
  check_bool "domains=4 == domains=1" true (outcome_equal got1 got4)

let test_validation () =
  let t = Shard.create ~shards:2 () in
  let raises f = try f () ; false with Invalid_argument _ -> true in
  check_bool "zero shards" true (raises (fun () -> ignore (Shard.create ~shards:0 ())));
  check_bool "self conduit" true
    (raises (fun () -> ignore (Shard.conduit t ~src:0 ~dst:0 ~lookahead_ns:1.0)));
  check_bool "zero lookahead" true
    (raises (fun () -> ignore (Shard.conduit t ~src:0 ~dst:1 ~lookahead_ns:0.0)));
  check_bool "out of range" true
    (raises (fun () -> ignore (Shard.conduit t ~src:0 ~dst:7 ~lookahead_ns:1.0)));
  let c = Shard.conduit t ~src:0 ~dst:1 ~lookahead_ns:5.0 in
  check_bool "send below lookahead" true
    (raises (fun () -> Shard.send t c ~delay:4.0 (fun () -> ())))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "engine.shard",
      [
        Alcotest.test_case "matches sequential reference" `Quick test_shard_matches_reference;
        Alcotest.test_case "domain count is unobservable" `Quick test_domains_dont_matter;
        Alcotest.test_case "argument validation" `Quick test_validation;
      ] );
    qsuite "engine.shard.prop" [ prop_shard_identical ];
  ]
