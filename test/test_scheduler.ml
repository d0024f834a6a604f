(* Tests for the fleet placement scheduler and the live fleet: tenant
   quotas and metering, anti-affinity, per-host ceilings, FFD
   determinism, mass evacuation — plus the QCheck invariant suite
   (anti-affinity never violated, ceilings never exceeded, same seed =>
   identical assignment, guest conservation across drain / restore /
   rebalance), a golden 50-host/500-guest trajectory, a 100-round
   fail -> evacuate -> re-add soak, and the full-scale 10K+-guest
   acceptance run. *)

open Bm_engine
module Cp = Bm_cloud.Control_plane
module Scheduler = Bm_cloud.Scheduler
module Tenant = Bm_cloud.Tenant
module Fleet = Bm_hyp.Fleet
module Topology = Bm_fabric.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let choose rng a = a.(Rng.int rng (Array.length a))
let unlimited = { Tenant.max_guests = max_int; max_vcpus = max_int }

let obs_with_metrics () =
  let m = Metrics.create () in
  (Obs.of_sim ~metrics:m (Sim.create ()), m)

(* ------------------------------------------------------------------ *)
(* Tenants *)

let test_tenant_quota () =
  let tn = Tenant.create ~name:"acme" Tenant.{ max_guests = 2; max_vcpus = 6 } in
  check_bool "first admit" true (Tenant.admit tn ~vcpus:4 = Ok ());
  check_bool "vcpu quota refuses" true (Result.is_error (Tenant.admit tn ~vcpus:4));
  check_bool "second admit" true (Tenant.admit tn ~vcpus:2 = Ok ());
  check_bool "guest quota refuses" true (Result.is_error (Tenant.admit tn ~vcpus:1));
  check_int "rejections counted" 2 (Tenant.rejections tn);
  Tenant.release tn ~vcpus:4;
  check_bool "admit after release" true (Tenant.admit tn ~vcpus:1 = Ok ());
  check_bool "over-release raises" true
    (match Tenant.release tn ~vcpus:99 with exception Invalid_argument _ -> true | () -> false)

let test_tenant_metering () =
  let obs, m = obs_with_metrics () in
  let tn = Tenant.create ~obs ~name:"acme" unlimited in
  Tenant.meter tn ~guest_ns:2e9 ~bytes:1000.0 ~ios:5.0;
  Tenant.meter tn ~guest_ns:1e9 ~bytes:0.0 ~ios:0.0;
  Alcotest.(check (float 1e-9)) "guest seconds" 3.0 (Tenant.guest_seconds tn);
  Alcotest.(check (float 1e-9)) "bytes" 1000.0 (Tenant.bytes tn);
  Alcotest.(check (float 1e-9))
    "metrics mirror guest_s" 3.0
    (Metrics.counter_value m "cloud.tenant.acme.guest_s");
  Alcotest.(check (float 1e-9))
    "metrics mirror bytes" 1000.0
    (Metrics.counter_value m "cloud.tenant.acme.bytes");
  check_int "row width" (List.length Tenant.row_header) (List.length (Tenant.row tn))

(* ------------------------------------------------------------------ *)
(* Scheduler mechanics *)

let small_fleet ?obs ?(ceiling = 1.0) ~vm_hosts () =
  let cp = Cp.create () in
  for _ = 1 to vm_hosts do
    ignore (Cp.add_server ~ceiling cp (Cp.Vm_server { sellable_threads = 16 }))
  done;
  let sched = Scheduler.create ?obs cp in
  Scheduler.register_tenant sched (Tenant.create ~name:"t0" unlimited);
  sched

let test_place_release () =
  let obs, m = obs_with_metrics () in
  let sched = small_fleet ~obs ~vm_hosts:2 () in
  let req = Scheduler.request ~name:"a" ~tenant:"t0" ~vcpus:4 () in
  check_bool "place ok" true (Result.is_ok (Scheduler.place sched req));
  check_bool "duplicate refused" true (Result.is_error (Scheduler.place sched req));
  check_bool "unknown tenant refused" true
    (Result.is_error
       (Scheduler.place sched (Scheduler.request ~name:"b" ~tenant:"nope" ~vcpus:1 ())));
  check_int "guest count" 1 (Scheduler.guest_count sched);
  check_bool "lookup" true (Scheduler.lookup sched "a" <> None);
  Alcotest.(check (float 0.0)) "placed counter" 1.0 (Metrics.counter_value m "cloud.sched.placed");
  Scheduler.release sched "a";
  check_int "released" 0 (Scheduler.guest_count sched);
  check_int "tenant quota freed" 0 (Tenant.guests (Option.get (Scheduler.tenant sched "t0")))

let test_quota_rollback_on_cp_failure () =
  (* One 4-thread host: the second request fails in the control plane;
     the tenant admission must be rolled back. *)
  let cp = Cp.create () in
  ignore (Cp.add_server cp (Cp.Vm_server { sellable_threads = 4 }));
  let sched = Scheduler.create cp in
  Scheduler.register_tenant sched (Tenant.create ~name:"t0" unlimited);
  check_bool "fits" true
    (Result.is_ok (Scheduler.place sched (Scheduler.request ~name:"a" ~tenant:"t0" ~vcpus:3 ())));
  check_bool "no capacity" true
    (Result.is_error
       (Scheduler.place sched (Scheduler.request ~name:"b" ~tenant:"t0" ~vcpus:3 ())));
  check_int "quota rolled back" 1 (Tenant.guests (Option.get (Scheduler.tenant sched "t0")))

let test_anti_affinity () =
  let sched = small_fleet ~vm_hosts:3 () in
  let req i = Scheduler.request ~name:(Printf.sprintf "g%d" i) ~tenant:"t0" ~vcpus:1 ~group:"aa" () in
  let placements = List.filter_map (fun i -> Result.to_option (Scheduler.place sched (req i))) [ 0; 1; 2 ] in
  check_int "three placed" 3 (List.length placements);
  let hosts = List.sort_uniq compare (List.map (fun p -> p.Cp.server) placements) in
  check_int "three distinct hosts" 3 (List.length hosts);
  check_bool "fourth member refused" true (Result.is_error (Scheduler.place sched (req 3)));
  check_bool "no violations" true (Scheduler.anti_affinity_violations sched = [])

let test_per_host_ceiling () =
  let sched = small_fleet ~ceiling:0.5 ~vm_hosts:1 () in
  (* 16 threads at ceiling 0.5: sells exactly 8. *)
  check_bool "8 fit" true
    (Result.is_ok (Scheduler.place sched (Scheduler.request ~name:"a" ~tenant:"t0" ~vcpus:8 ())));
  check_bool "ninth refused" true
    (Result.is_error (Scheduler.place sched (Scheduler.request ~name:"b" ~tenant:"t0" ~vcpus:1 ())));
  let cp = Scheduler.control_plane sched in
  check_bool "utilization at ceiling" true
    (Cp.server_utilization cp 0 <= 0.5 +. 1e-9)

let test_ffd_batch_order () =
  let sched = small_fleet ~vm_hosts:4 () in
  let reqs =
    [
      Scheduler.request ~name:"small" ~tenant:"t0" ~vcpus:1 ();
      Scheduler.request ~name:"big" ~tenant:"t0" ~vcpus:8 ();
      Scheduler.request ~name:"mid" ~tenant:"t0" ~vcpus:4 ();
    ]
  in
  let results = Scheduler.place_batch sched reqs in
  Alcotest.(check (list string))
    "FFD order: biggest first" [ "big"; "mid"; "small" ] (List.map fst results);
  check_bool "all placed" true (List.for_all (fun (_, r) -> Result.is_ok r) results)

let test_drain_and_retry () =
  (* Two hosts, both nearly full: draining one strands what the other
     cannot hold; restore + retry recovers it. *)
  let sched = small_fleet ~vm_hosts:2 () in
  let place name vcpus =
    check_bool (name ^ " placed") true
      (Result.is_ok (Scheduler.place sched (Scheduler.request ~name ~tenant:"t0" ~vcpus ())))
  in
  place "a" 12;
  place "b" 12;
  (* host0: a(12); host1: b(12); free: 4 + 4 *)
  let results = Scheduler.drain sched ~server:0 in
  check_int "one victim" 1 (List.length results);
  check_bool "victim stranded" true (Scheduler.stranded sched = [ "a" ]);
  check_int "quota retained while stranded" 2
    (Tenant.guests (Option.get (Scheduler.tenant sched "t0")));
  check_int "conservation" 2
    (List.length (Scheduler.assignments sched) + List.length (Scheduler.stranded sched));
  Cp.restore_server (Scheduler.control_plane sched) 0;
  let retried = Scheduler.retry_stranded sched in
  check_bool "recovered" true (List.for_all (fun (_, r) -> Result.is_ok r) retried);
  check_bool "no stranded left" true (Scheduler.stranded sched = [])

let test_rebalance () =
  let sched = small_fleet ~vm_hosts:4 () in
  (* Pack host 0 with first-fit singles, then spread. *)
  for i = 0 to 11 do
    ignore (Scheduler.place sched (Scheduler.request ~name:(Printf.sprintf "g%02d" i) ~tenant:"t0" ~vcpus:1 ()))
  done;
  let before = Scheduler.occupancy sched in
  check_bool "first-fit packs host 0" true (List.assoc 0 before >= 12);
  let moves = Scheduler.rebalance sched () in
  check_bool "moves made" true (moves <> []);
  check_int "conservation after rebalance" 12 (Scheduler.guest_count sched);
  let spread = List.map snd (Scheduler.occupancy sched) in
  check_bool "no host above mean + band" true
    (List.for_all (fun c -> c <= 12) spread);
  check_bool "still no violations" true (Scheduler.anti_affinity_violations sched = [])

(* ------------------------------------------------------------------ *)
(* Property suite: random fleets, random maintenance histories *)

type model_op = Drain of int | Restore of int | Retry | Rebalance | Release of int | Replace of int

(* Derive a whole fleet + request list + op sequence from a seed, so the
   QCheck input stays a plain tuple and shrinking is meaningful. *)
let build_model (seed, n_hosts, n_reqs) =
  let rng = Rng.create ~seed in
  let cp = Cp.create () in
  for _ = 1 to n_hosts do
    let ceiling = choose rng [| 0.5; 0.75; 0.9; 1.0 |] in
    let kind =
      if Rng.bool rng then Cp.Bm_server { boards = 4; board_threads = 8 }
      else Cp.Vm_server { sellable_threads = 16 }
    in
    ignore (Cp.add_server ~ceiling cp kind)
  done;
  let sched = Scheduler.create cp in
  Scheduler.register_tenant sched (Tenant.create ~name:"t0" unlimited);
  Scheduler.register_tenant sched
    (Tenant.create ~name:"t1" Tenant.{ max_guests = 10; max_vcpus = 30 });
  Scheduler.register_tenant sched
    (Tenant.create ~name:"t2" Tenant.{ max_guests = 5; max_vcpus = 12 });
  let reqs =
    List.init n_reqs (fun i ->
        let vcpus = 1 + Rng.int rng 8 in
        let group = if Rng.int rng 3 = 0 then Some ("g" ^ string_of_int (Rng.int rng 4)) else None in
        let tenant = "t" ^ string_of_int (Rng.int rng 3) in
        Scheduler.request ~name:(Printf.sprintf "r%03d" i) ~tenant ~vcpus ?group ())
  in
  (sched, reqs)

(* [Replace] re-requests, by name, a guest an earlier op released. *)
let model_ops rng ~n_hosts ~n_reqs ~n_ops =
  let released = ref [] in
  List.init n_ops (fun _ ->
      match Rng.int rng 6 with
      | 0 -> Drain (Rng.int rng n_hosts)
      | 1 -> Restore (Rng.int rng n_hosts)
      | 2 -> Retry
      | 3 -> Rebalance
      | 4 when !released <> [] -> Replace (choose rng (Array.of_list !released))
      | _ ->
        let i = Rng.int rng n_reqs in
        released := i :: !released;
        Release i)

let apply_op sched reqs = function
  | Drain s -> ignore (Scheduler.drain sched ~server:s)
  | Restore s ->
    Cp.restore_server (Scheduler.control_plane sched) s;
    ignore (Scheduler.retry_stranded sched)
  | Retry -> ignore (Scheduler.retry_stranded sched)
  | Rebalance -> ignore (Scheduler.rebalance sched ())
  | Release i -> Scheduler.release sched (Printf.sprintf "r%03d" i)
  | Replace i -> ignore (Scheduler.place sched (List.nth reqs i))

(* Host and request counts shrink towards their lower bounds, never
   below: a shrunk counterexample stays a valid model. *)
let model_arb =
  let from lo hi = QCheck.(map ~rev:(fun n -> n - lo) (fun k -> lo + k) (int_bound (hi - lo))) in
  QCheck.(triple (int_bound 10_000) (from 3 8) (from 1 50))
  |> QCheck.set_print (fun (seed, hosts, reqs) ->
         Printf.sprintf "seed %d, %d hosts, %d requests" seed hosts reqs)

(* Run [prop] on the scheduler after the batch and again after every
   maintenance op. *)
let holds_throughout (seed, n_hosts, n_reqs) prop =
  let sched, reqs = build_model (seed, n_hosts, n_reqs) in
  ignore (Scheduler.place_batch sched reqs);
  let rng = Rng.create ~seed:(seed + 1) in
  let ops = model_ops rng ~n_hosts ~n_reqs ~n_ops:12 in
  prop sched
  && List.for_all
       (fun op ->
         apply_op sched reqs op;
         prop sched)
       ops

let prop_no_anti_affinity_violation =
  QCheck.Test.make ~name:"anti-affinity never violated" ~count:100 model_arb (fun input ->
      holds_throughout input (fun sched -> Scheduler.anti_affinity_violations sched = []))

let prop_ceiling_never_exceeded =
  QCheck.Test.make ~name:"no host exceeds its ceiling" ~count:100 model_arb (fun input ->
      holds_throughout input (fun sched ->
          let cp = Scheduler.control_plane sched in
          List.for_all
            (fun id -> Cp.server_utilization cp id <= Cp.server_ceiling cp id +. 1e-9)
            (Cp.server_ids cp)))

let prop_guest_conservation =
  QCheck.Test.make ~name:"guests conserved across drain/restore/rebalance" ~count:100 model_arb
    (fun input ->
      holds_throughout input (fun sched ->
          let placed = List.map fst (Scheduler.assignments sched) in
          let stranded = Scheduler.stranded sched in
          let admitted =
            List.fold_left (fun acc tn -> acc + Tenant.guests tn) 0 (Scheduler.tenants sched)
          in
          (* placed + stranded = admitted, no duplicates, and the views
             agree with the control plane. *)
          List.length placed + List.length stranded = admitted
          && List.length (List.sort_uniq compare (placed @ stranded)) = admitted
          && List.for_all
               (fun name -> Cp.lookup (Scheduler.control_plane sched) name <> None)
               placed))

(* Every view against a reference rebuilt here from [lookup] and
   [request_of], which read the guest table directly rather than the
   view snapshot. Each view is read twice per step: the first read after
   a write rebuilds the snapshot, the second is served from it — so a
   placement write that skips the generation bump serves stale views and
   fails. *)
let views_match_reference sched names =
  let cp = Scheduler.control_plane sched in
  let placed = List.filter_map (fun n -> Option.map (fun p -> (n, p)) (Scheduler.lookup sched n)) names in
  let stranded =
    List.filter (fun n -> Scheduler.request_of sched n <> None && Scheduler.lookup sched n = None) names
  in
  let on server = List.filter (fun (_, p) -> p.Cp.server = server) placed in
  let tenant_of n = (Option.get (Scheduler.request_of sched n)).Scheduler.tenant in
  let servers = Cp.server_ids cp in
  let tenants = "nope" :: List.map Tenant.name (Scheduler.tenants sched) in
  let once () =
    Scheduler.assignments sched = placed
    && Scheduler.stranded sched = stranded
    && Scheduler.occupancy sched = List.map (fun id -> (id, List.length (on id))) servers
    && List.for_all
         (fun server ->
           Scheduler.guests_on sched ~server = List.map fst (on server)
           && Scheduler.tenants_on_host sched ~server
              = List.sort_uniq compare (List.map (fun (n, _) -> tenant_of n) (on server)))
         servers
    && List.for_all
         (fun tenant ->
           Scheduler.hosts_of_tenant sched ~tenant
           = List.sort_uniq compare
               (List.filter_map
                  (fun (n, p) -> if tenant_of n = tenant then Some p.Cp.server else None)
                  placed))
         tenants
  in
  once () && once ()

let prop_views_match_reference =
  QCheck.Test.make ~name:"views equal a reference rebuilt from the guest table" ~count:100
    model_arb (fun ((_, _, n_reqs) as input) ->
      let names = List.sort compare (List.init n_reqs (Printf.sprintf "r%03d")) in
      holds_throughout input (fun sched -> views_match_reference sched names))

let prop_same_seed_same_assignment =
  QCheck.Test.make ~name:"same seed => identical assignment" ~count:100 model_arb (fun input ->
      let sched1, reqs1 = build_model input in
      ignore (Scheduler.place_batch sched1 reqs1);
      let sched2, reqs2 = build_model input in
      (* FFD sorts internally: feeding the requests in reverse must give
         the same assignment. *)
      ignore (Scheduler.place_batch sched2 (List.rev reqs2));
      Scheduler.assignments sched1 = Scheduler.assignments sched2
      && Scheduler.stranded sched1 = Scheduler.stranded sched2)

(* Rebalance as it was before the per-host candidate index: every move
   re-scans the whole guest table for the donor's smallest guest. It
   drives the control plane directly and tracks placements in its own
   table, so run it on a twin of the scheduler under test. A model
   scheduler has no classifier and places first-fit, as [replace_guest]
   does on a put-back. *)
let full_scan_rebalance sched ~max_moves ~band =
  let cp = Scheduler.control_plane sched in
  let ids = Cp.server_ids cp in
  let util id = Cp.server_utilization cp id in
  let mean = List.fold_left (fun acc id -> acc +. util id) 0.0 ids /. float_of_int (List.length ids) in
  let ceiling = mean +. band in
  let where = Hashtbl.create 64 in
  List.iter (fun (n, p) -> Hashtbl.replace where n p) (Scheduler.assignments sched);
  let req n = Option.get (Scheduler.request_of sched n) in
  let group_hosts = function
    | None -> []
    | Some g ->
      Hashtbl.fold
        (fun n (p : Cp.placement) acc -> if (req n).Scheduler.group = Some g then p.server :: acc else acc)
        where []
      |> List.sort_uniq compare
  in
  let place (r : Scheduler.request) ~prefer ~strategy ~avoid =
    Cp.place cp ~name:r.name ~vcpus:r.vcpus ~prefer ~strategy ~avoid ~image:Bm_cloud.Image.centos7 ()
  in
  let moves = ref [] and budget = ref max_moves in
  List.iter
    (fun donor ->
      let continue_ = ref true in
      while !continue_ && !budget > 0 && util donor > ceiling do
        let candidates =
          Hashtbl.fold
            (fun n (p : Cp.placement) acc -> if p.server = donor then req n :: acc else acc)
            where []
          |> List.sort (fun (a : Scheduler.request) b ->
                 match compare a.vcpus b.vcpus with 0 -> compare a.name b.name | c -> c)
        in
        match candidates with
        | [] -> continue_ := false
        | r :: _ -> (
          let p = Hashtbl.find where r.name in
          Hashtbl.remove where r.name;
          Cp.release cp r.name;
          let avoid = donor :: group_hosts r.group in
          match place r ~prefer:p.substrate ~strategy:Cp.Spread ~avoid with
          | Ok p' ->
            Hashtbl.replace where r.name p';
            moves := (r.name, donor, p'.server) :: !moves;
            decr budget
          | Error _ ->
            let other = if p.substrate = Cp.Bare_metal then Cp.Virtual else Cp.Bare_metal in
            let avoid = group_hosts r.group in
            (match place r ~prefer:p.substrate ~strategy:Cp.First_fit ~avoid with
            | Ok p'' -> Hashtbl.replace where r.name p''
            | Error _ -> (
              match place r ~prefer:other ~strategy:Cp.First_fit ~avoid with
              | Ok p'' -> Hashtbl.replace where r.name p''
              | Error _ -> ()));
            continue_ := false)
      done)
    ids;
  List.rev !moves

let prop_rebalance_matches_full_scan =
  QCheck.Test.make ~name:"indexed rebalance moves = full-scan moves" ~count:100 model_arb
    (fun ((seed, n_hosts, n_reqs) as input) ->
      let fleet () =
        let sched, reqs = build_model input in
        ignore (Scheduler.place_batch sched reqs);
        let rng = Rng.create ~seed:(seed + 1) in
        List.iter (apply_op sched reqs) (model_ops rng ~n_hosts ~n_reqs ~n_ops:6);
        sched
      in
      let moves = Scheduler.rebalance (fleet ()) () in
      moves = full_scan_rebalance (fleet ()) ~max_moves:64 ~band:0.05)

(* ------------------------------------------------------------------ *)
(* Topology auto-sizing *)

let test_for_hosts () =
  let t = Topology.for_hosts ~hosts:280 () in
  check_int "hosts" 280 t.Topology.hosts;
  check_int "tors: ceil(280/32)" 9 t.Topology.tors;
  check_int "spines: max 2 (ceil 9/4)" 3 t.Topology.spines;
  let small = Topology.for_hosts ~hosts:10 () in
  check_int "one rack" 1 small.Topology.tors;
  check_int "no spine behind one rack" 0 small.Topology.spines;
  let two_racks = Topology.for_hosts ~hosts:33 () in
  check_int "two racks" 2 two_racks.Topology.tors;
  check_int "spine floor of 2" 2 two_racks.Topology.spines

(* ------------------------------------------------------------------ *)
(* Live fleet *)

let golden_config = Fleet.Live.{ hosts = 50; guests = 500; tenants = 10; host_ceiling = 0.9 }

let busiest_host sched =
  fst
    (List.fold_left
       (fun (bh, bc) (h, c) -> if c > bc then (h, c) else (bh, bc))
       (0, -1) (Scheduler.occupancy sched))

(* The committed 50-host / 500-guest trajectory (seed 2020): build,
   evacuate the busiest host, restore, rebalance — then compare the
   occupancy table byte-for-byte. Regenerate [Golden_fleet] by printing
   [golden_trajectory ()] if the placement model changes
   intentionally. *)
let golden_trajectory () =
  let live = Fleet.Live.build ~seed:2020 golden_config in
  let sched = Fleet.Live.scheduler live in
  let victim = busiest_host sched in
  ignore (Fleet.Live.evacuate ~stream_memory:false live ~server:victim);
  ignore (Fleet.Live.restore live ~server:victim);
  ignore (Scheduler.rebalance sched ());
  Fleet.Live.occupancy_table live

let test_golden_trajectory () =
  let expected = Golden_fleet.occupancy_50x500_seed2020 in
  check_string "golden occupancy table" expected (golden_trajectory ())

(* The same fleet served on both sides of a maintenance cycle; the
   per-tenant meters must match the committed golden bit for bit. *)
let golden_meters () =
  let live = Fleet.Live.build ~seed:2020 golden_config in
  let sched = Fleet.Live.scheduler live in
  Fleet.Live.serve live ~duration_ns:1e6;
  let victim = busiest_host sched in
  ignore (Fleet.Live.evacuate ~stream_memory:false live ~server:victim);
  ignore (Fleet.Live.restore live ~server:victim);
  ignore (Scheduler.rebalance sched ());
  Fleet.Live.serve live ~duration_ns:1e6;
  String.concat ""
    (List.map
       (fun tn ->
         Printf.sprintf "%s guest_s %h bytes %h ios %h\n" (Tenant.name tn) (Tenant.guest_seconds tn)
           (Tenant.bytes tn) (Tenant.ios tn))
       (Scheduler.tenants sched))

let test_golden_meters () =
  check_string "golden tenant meters" Golden_fleet.tenant_meters_50x500_seed2020 (golden_meters ())

let test_live_determinism () =
  let t1 = Fleet.Live.build ~seed:7 Fleet.Live.quick_config in
  let t2 = Fleet.Live.build ~seed:7 Fleet.Live.quick_config in
  check_string "same seed, same occupancy" (Fleet.Live.occupancy_table t1)
    (Fleet.Live.occupancy_table t2);
  let s1 = Fleet.Live.exit_survey t1 (Rng.create ~seed:99) in
  let s2 = Fleet.Live.exit_survey t2 (Rng.create ~seed:99) in
  check_bool "same survey" true (s1 = s2);
  let t3 = Fleet.Live.build ~seed:8 Fleet.Live.quick_config in
  check_bool "different seed, different occupancy" true
    (Fleet.Live.occupancy_table t1 <> Fleet.Live.occupancy_table t3)

let test_live_serve_meters () =
  let live = Fleet.Live.build ~seed:3 golden_config in
  Fleet.Live.serve live ~duration_ns:1e6;
  let tenants = Scheduler.tenants (Fleet.Live.scheduler live) in
  check_int "all tenants registered" golden_config.Fleet.Live.tenants (List.length tenants);
  check_bool "every tenant metered guest-seconds" true
    (List.for_all (fun tn -> Tenant.guest_seconds tn > 0.0) tenants);
  check_bool "every tenant metered bytes" true
    (List.for_all (fun tn -> Tenant.bytes tn > 0.0) tenants);
  let total_guests = List.fold_left (fun acc tn -> acc + Tenant.guests tn) 0 tenants in
  check_int "tenant admissions = placed" (Fleet.Live.placed live) total_guests;
  check_bool "east-west flows delivered" true (Fleet.Live.flow_bursts live > 0)

let test_live_evacuation_streams () =
  let live = Fleet.Live.build ~seed:4 golden_config in
  let sched = Fleet.Live.scheduler live in
  let victim = busiest_host sched in
  let expected_bytes =
    List.fold_left
      (fun acc name ->
        let req = Option.get (Scheduler.request_of sched name) in
        acc + (req.Scheduler.mem_gb * 1024 * 1024 * 1024))
      0
      (Scheduler.guests_on sched ~server:victim)
  in
  let e = Fleet.Live.evacuate live ~server:victim in
  check_int "every victim re-placed" e.Fleet.Live.victims e.Fleet.Live.replaced;
  check_int "all memory streamed" expected_bytes e.Fleet.Live.bytes_streamed;
  check_bool "stream took simulated time" true (e.Fleet.Live.stream_ns > 0.0);
  let net = Fleet.Live.fabric live in
  check_int "pre-copy is drop-free" 0 (Bm_fabric.Fabric.dropped net);
  check_bool "fabric conservation" true
    (Bm_fabric.Fabric.injected net
    = Bm_fabric.Fabric.delivered net + Bm_fabric.Fabric.dropped net)

(* The congested fleet of fleet_scale's --shards check: one spine at
   1 Gbit/s behind four racks, queues of two bursts. Served at 1 and 2
   shards from one seed, the two fleets must carry the same flows over
   one shared fabric: same deliveries, drops, per-link tallies and
   final clock. *)
let congested_serve ~shards =
  let topo =
    match Topology.parse_spec "hosts=8,tors=4,spines=1,host_gbit=10,spine_gbit=1,queue=2" with
    | Ok topo -> topo
    | Error e -> Alcotest.fail e
  in
  let cfg = Fleet.Live.{ hosts = 8; guests = 400; tenants = 4; host_ceiling = 0.9 } in
  let live = Fleet.Live.build ~topo ~seed:2020 cfg in
  Fleet.Live.serve ~shards live ~duration_ns:2e6;
  let net = Fleet.Live.fabric live in
  let now = Sim.now (Fleet.Live.sim live) in
  let link (l : Bm_fabric.Fabric.link_stat) =
    Printf.sprintf "%s util %h p99 %h sent %d delivered %d/%d dropped %d/%d queued %d\n" l.name
      l.utilization l.depth_p99 l.sent_bursts l.delivered_bursts l.delivered_pkts
      l.dropped_bursts l.dropped_pkts l.queued
  in
  ( Bm_fabric.Fabric.dropped net,
    Printf.sprintf "bursts %d injected %d delivered %d dropped %d now %h\n%s"
      (Fleet.Live.flow_bursts live) (Bm_fabric.Fabric.injected net)
      (Bm_fabric.Fabric.delivered net) (Bm_fabric.Fabric.dropped net) now
      (String.concat "" (List.map link (Bm_fabric.Fabric.link_stats net ~now))) )

let test_serve_shards_invisible () =
  let dropped, one = congested_serve ~shards:1 in
  check_bool "the fabric drops packets" true (dropped > 0);
  check_string "shards 2 = shards 1" one (snd (congested_serve ~shards:2))

(* 100 rounds of fail -> evacuate -> re-add across a rotating victim:
   the fleet must reach the same steady state every round — nothing
   stranded, nothing lost, no anti-affinity violation — and the metric
   registry must not grow per round (bounded cardinality). *)
let test_live_soak () =
  let m = Metrics.create () in
  let cfg = Fleet.Live.{ golden_config with hosts = 12; guests = 300; tenants = 6 } in
  let live = Fleet.Live.build ~metrics:m ~seed:11 cfg in
  let sched = Fleet.Live.scheduler live in
  check_int "all placed" cfg.Fleet.Live.guests (Fleet.Live.placed live);
  let total = cfg.Fleet.Live.guests in
  let cardinality_at_10 = ref 0 in
  for round = 1 to 100 do
    let victim = round mod cfg.Fleet.Live.hosts in
    (* Stream the first two rounds' memory over the fabric; the rest
       exercise placement only, keeping the soak fast. *)
    let e = Fleet.Live.evacuate ~stream_memory:(round <= 2) live ~server:victim in
    check_int
      (Printf.sprintf "round %d: victims re-placed or stranded" round)
      e.Fleet.Live.victims
      (e.Fleet.Live.replaced + e.Fleet.Live.stranded);
    ignore (Fleet.Live.restore live ~server:victim);
    check_int
      (Printf.sprintf "round %d: conservation" round)
      total
      (List.length (Scheduler.assignments sched) + List.length (Scheduler.stranded sched));
    check_bool
      (Printf.sprintf "round %d: no violations" round)
      true
      (Scheduler.anti_affinity_violations sched = []);
    if round = 10 then cardinality_at_10 := List.length (Metrics.names m)
  done;
  check_bool "zero stranded at steady state" true (Scheduler.stranded sched = []);
  check_int "zero guests lost" total (Scheduler.guest_count sched);
  check_int "metric cardinality bounded (round 100 = round 10)" !cardinality_at_10
    (List.length (Metrics.names m))

(* The acceptance run: >= 10K guests on >= 200 fabric-attached hosts,
   full maintenance cycle, all invariants — in-process so the tier-1
   suite carries it. *)
let test_full_scale () =
  let cfg = Fleet.Live.default_config in
  check_bool ">= 200 hosts" true (cfg.Fleet.Live.hosts >= 200);
  check_bool ">= 10000 guests" true (cfg.Fleet.Live.guests >= 10_000);
  let live = Fleet.Live.build ~seed:2020 cfg in
  check_int "every guest placed" cfg.Fleet.Live.guests (Fleet.Live.placed live);
  let sched = Fleet.Live.scheduler live in
  let cp = Scheduler.control_plane sched in
  check_bool "ceilings hold fleet-wide" true
    (List.for_all
       (fun id -> Cp.server_utilization cp id <= Cp.server_ceiling cp id +. 1e-9)
       (Cp.server_ids cp));
  check_bool "no violations at scale" true (Scheduler.anti_affinity_violations sched = []);
  Fleet.Live.serve live ~duration_ns:1e6;
  let victim = busiest_host sched in
  let e = Fleet.Live.evacuate live ~server:victim in
  check_int "evacuation strands nothing" 0 e.Fleet.Live.stranded;
  check_int "drop-free at scale" 0 (Bm_fabric.Fabric.dropped (Fleet.Live.fabric live));
  (* The live survey draws from the same distributions as the sampler:
     at 10K+ VMs the Table-2 head lands in the paper's band. *)
  let s = Fleet.Live.exit_survey live (Rng.create ~seed:5) in
  check_bool "live Table-2 head in band" true (s.Fleet.over_10k > 0.019 && s.Fleet.over_10k < 0.057)

let suites =
  [
    ( "scheduler.tenant",
      [
        Alcotest.test_case "quota enforcement" `Quick test_tenant_quota;
        Alcotest.test_case "metering + metrics mirror" `Quick test_tenant_metering;
      ] );
    ( "scheduler.unit",
      [
        Alcotest.test_case "place/release lifecycle" `Quick test_place_release;
        Alcotest.test_case "quota rollback on CP failure" `Quick test_quota_rollback_on_cp_failure;
        Alcotest.test_case "anti-affinity" `Quick test_anti_affinity;
        Alcotest.test_case "per-host ceiling" `Quick test_per_host_ceiling;
        Alcotest.test_case "FFD batch order" `Quick test_ffd_batch_order;
        Alcotest.test_case "drain strands + retry recovers" `Quick test_drain_and_retry;
        Alcotest.test_case "rebalance spreads load" `Quick test_rebalance;
      ] );
    ( "scheduler.prop",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_no_anti_affinity_violation;
          prop_ceiling_never_exceeded;
          prop_guest_conservation;
          prop_views_match_reference;
          prop_same_seed_same_assignment;
          prop_rebalance_matches_full_scan;
        ] );
    ( "fleet.live",
      [
        Alcotest.test_case "topology auto-sizing" `Quick test_for_hosts;
        Alcotest.test_case "golden 50x500 trajectory" `Quick test_golden_trajectory;
        Alcotest.test_case "golden 50x500 tenant meters" `Quick test_golden_meters;
        Alcotest.test_case "build determinism" `Quick test_live_determinism;
        Alcotest.test_case "serve meters tenants" `Quick test_live_serve_meters;
        Alcotest.test_case "evacuation streams memory" `Quick test_live_evacuation_streams;
        Alcotest.test_case "congested serve independent of shards" `Quick
          test_serve_shards_invisible;
        Alcotest.test_case "100-round soak" `Slow test_live_soak;
        Alcotest.test_case "full scale 12K guests / 280 hosts" `Slow test_full_scale;
      ] );
  ]
