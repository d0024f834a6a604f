open Bm_engine
open Bm_hyp
module Fabric = Bm_fabric.Fabric
module Packet = Bm_virtio.Packet
module Slo = Bm_cloud.Slo
module Limits = Bm_cloud.Limits
module Scheduler = Bm_cloud.Scheduler
module Cp = Bm_cloud.Control_plane
module Policy = Bm_cloud.Policy
module Topology = Bm_fabric.Topology

(* --- timeline DSL --------------------------------------------------- *)

type action =
  | Traffic of float
  | Host_fail of { victim : int; duration_ns : float }
  | Link_fail of { victim : int; duration_ns : float }
  | Congest of { duration_ns : float }
  | Evacuate of { victim : int }
  | Brownout of { duration_ns : float }
  | Vf_stall of { duration_ns : float }
  | Vf_wedge of { duration_ns : float }

type entry = { at : float; action : action }

type timeline = entry list

let at t action = [ { at = t; action } ]

let ramp ~from_ns ~until_ns ~lo ~hi () =
  let steps = 8 in
  if not (until_ns > from_ns) then invalid_arg "Scenario.ramp: empty span";
  let span = until_ns -. from_ns in
  List.init steps (fun k ->
      let f = float_of_int k /. float_of_int steps in
      let scale = lo +. ((hi -. lo) *. sin (Float.pi *. f)) in
      { at = from_ns +. (f *. span); action = Traffic scale })

(* --- specs ---------------------------------------------------------- *)

type spec = { seed : int; horizon_ns : float; timeline : entry list }

(* 2 ms of simulated time, matching [Fault.make_plan]. *)
let default_horizon_ns = 2e6

(* SLO scoring windows per scenario: the ladder gets enough boundaries
   to escalate, act and de-escalate within one horizon. *)
let windows = 24

let make ~seed ?(horizon_ns = default_horizon_ns) timeline =
  if not (horizon_ns > 0.0) then invalid_arg "Scenario.make: horizon must be > 0";
  List.iter
    (fun e ->
      if not (e.at >= 0.0 && e.at < horizon_ns) then
        invalid_arg "Scenario.make: entry outside [0, horizon)")
    timeline;
  { seed; horizon_ns; timeline = List.stable_sort (fun a b -> compare a.at b.at) timeline }

(* The committed game day. Fractions of the horizon are chosen so the
   ladder has windows to detect, escalate (through a brownout that
   makes its first attempt fail) and recover well before the end:
   without degradation the host failures blanket over half the scored
   windows, with it they cost a handful. *)
let default_timeline h =
  List.concat
    [
      ramp ~from_ns:0.0 ~until_ns:h ~lo:0.6 ~hi:1.5 ();
      at (0.22 *. h) (Host_fail { victim = 0; duration_ns = 0.60 *. h });
      at (0.26 *. h) (Host_fail { victim = 1; duration_ns = 0.55 *. h });
      at (0.23 *. h) (Brownout { duration_ns = 0.06 *. h });
      at (0.35 *. h) (Link_fail { victim = 0; duration_ns = 0.25 *. h });
      at (0.45 *. h) (Congest { duration_ns = 0.15 *. h });
      at (0.80 *. h) (Evacuate { victim = 2 });
    ]

let default_spec ?(horizon_ns = default_horizon_ns) ~seed () =
  make ~seed ~horizon_ns (default_timeline horizon_ns)

(* --- string form ---------------------------------------------------- *)

let describe = function
  | Traffic s -> Printf.sprintf "traffic x%.2f" s
  | Host_fail { victim; duration_ns } ->
    Printf.sprintf "host-fail victim=%d duration=%.0fns" victim duration_ns
  | Link_fail { victim; duration_ns } ->
    Printf.sprintf "link-fail victim=%d duration=%.0fns" victim duration_ns
  | Congest { duration_ns } -> Printf.sprintf "congest duration=%.0fns" duration_ns
  | Evacuate { victim } -> Printf.sprintf "evacuate victim=%d" victim
  | Brownout { duration_ns } -> Printf.sprintf "brownout duration=%.0fns" duration_ns
  | Vf_stall { duration_ns } -> Printf.sprintf "vf-stall duration=%.0fns" duration_ns
  | Vf_wedge { duration_ns } -> Printf.sprintf "vf-wedge duration=%.0fns" duration_ns

let render spec =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "scenario seed=%d horizon_ns=%.0f\n" spec.seed spec.horizon_ns);
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "  %10.0f  %s\n" e.at (describe e.action)))
    spec.timeline;
  Buffer.contents b

let parse_spec s =
  match String.index_opt s ':' with
  | None -> Error "scenario spec must look like <seed>:<spec>"
  | Some i -> (
    let seed_s = String.sub s 0 i in
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt seed_s with
    | None -> Error (Printf.sprintf "bad scenario seed %S" seed_s)
    | Some seed -> (
      let tokens =
        String.split_on_char ',' body |> List.map String.trim
        |> List.filter (fun t -> t <> "")
      in
      if tokens = [] then Error "empty scenario spec"
      else begin
        let use_default = ref false in
        let horizon = ref default_horizon_ns in
        let ramp_opt = ref None in
        let hosts = ref 0 and links = ref 0 and congests = ref 0 in
        let evacs = ref 0 and brownouts = ref 0 in
        let vfstalls = ref 0 and vfwedges = ref 0 in
        let err = ref None in
        let int_of v tok = match int_of_string_opt v with
          | Some n when n >= 0 -> Some n
          | _ -> err := Some (Printf.sprintf "bad count in %S" tok); None
        in
        List.iter
          (fun tok ->
            if !err = None then
              match String.index_opt tok '=' with
              | None ->
                if tok = "default" then use_default := true
                else err := Some (Printf.sprintf "unknown scenario token %S" tok)
              | Some j -> (
                let k = String.sub tok 0 j in
                let v = String.sub tok (j + 1) (String.length tok - j - 1) in
                match k with
                | "hosts" -> Option.iter (fun n -> hosts := n) (int_of v tok)
                | "links" -> Option.iter (fun n -> links := n) (int_of v tok)
                | "congest" -> Option.iter (fun n -> congests := n) (int_of v tok)
                | "evac" -> Option.iter (fun n -> evacs := n) (int_of v tok)
                | "brownout" -> Option.iter (fun n -> brownouts := n) (int_of v tok)
                | "vfstall" -> Option.iter (fun n -> vfstalls := n) (int_of v tok)
                | "vfwedge" -> Option.iter (fun n -> vfwedges := n) (int_of v tok)
                | "horizon" -> (
                  match float_of_string_opt v with
                  | Some h when h > 0.0 && Float.is_finite h -> horizon := h
                  | _ -> err := Some (Printf.sprintf "bad horizon in %S" tok))
                | "ramp" -> (
                  match String.split_on_char '-' v with
                  | [ lo; hi ] -> (
                    match (float_of_string_opt lo, float_of_string_opt hi) with
                    | Some lo, Some hi when lo >= 0.0 && hi >= lo -> ramp_opt := Some (lo, hi)
                    | _ -> err := Some (Printf.sprintf "bad ramp in %S" tok))
                  | _ -> err := Some (Printf.sprintf "bad ramp in %S" tok))
                | _ -> err := Some (Printf.sprintf "unknown scenario token %S" tok)))
          tokens;
        match !err with
        | Some e -> Error e
        | None ->
          let h = !horizon in
          (* One SplitMix64 stream per action kind, split in a fixed
             order: adding events of one kind never moves another's. *)
          let root = Rng.create ~seed in
          let host_rng = Rng.split root in
          let link_rng = Rng.split root in
          let congest_rng = Rng.split root in
          let evac_rng = Rng.split root in
          let brown_rng = Rng.split root in
          (* New kinds split after the historical five, so old specs
             keep their exact event times. *)
          let vfstall_rng = Rng.split root in
          let vfwedge_rng = Rng.split root in
          let band rng lo hi = Rng.uniform rng ~lo:(lo *. h) ~hi:(hi *. h) in
          let tl = ref (if !use_default then default_timeline h else []) in
          let add e = tl := !tl @ e in
          Option.iter (fun (lo, hi) -> add (ramp ~from_ns:0.0 ~until_ns:h ~lo ~hi ())) !ramp_opt;
          for k = 0 to !hosts - 1 do
            add (at (band host_rng 0.15 0.45) (Host_fail { victim = k; duration_ns = 0.55 *. h }))
          done;
          for k = 0 to !links - 1 do
            add (at (band link_rng 0.25 0.55) (Link_fail { victim = k; duration_ns = 0.25 *. h }))
          done;
          for _ = 1 to !congests do
            add (at (band congest_rng 0.30 0.60) (Congest { duration_ns = 0.15 *. h }))
          done;
          for k = 0 to !evacs - 1 do
            add (at (band evac_rng 0.65 0.90) (Evacuate { victim = !hosts + k }))
          done;
          for _ = 1 to !brownouts do
            add (at (band brown_rng 0.20 0.50) (Brownout { duration_ns = 0.06 *. h }))
          done;
          for _ = 1 to !vfstalls do
            add (at (band vfstall_rng 0.25 0.60) (Vf_stall { duration_ns = 0.04 *. h }))
          done;
          for _ = 1 to !vfwedges do
            add (at (band vfwedge_rng 0.30 0.65) (Vf_wedge { duration_ns = 0.05 *. h }))
          done;
          (* A horizon too small to hold its own events is a bad spec,
             not a crash. *)
          match make ~seed ~horizon_ns:h !tl with
          | spec -> Ok spec
          | exception Invalid_argument e -> Error (Printf.sprintf "scenario spec %S: %s" body e)
      end))

(* --- running -------------------------------------------------------- *)

type outcome = {
  degrade : bool;
  policy : string;
  scores : Slo.tenant_score list;
  met : int;
  missed : int;
  delivered : int;
  failed : int;
  shed : int;
  max_stage : int;
  stage_actions : int;
  guard_retries : int;
  breaker_opens : int;
  evacuated_guests : int;
  evac_bytes : int;
  sim_events : int;
  fault_summary : string;
  scorecard : string;
}

let tier_index = function Slo.Gold -> 0 | Slo.Silver -> 1 | Slo.Bronze -> 2

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let run ?trace ?metrics ?(degrade = true) ?(policy = Policy.Ladder) ?(fleet = Fleet.Live.default_config) spec =
  let t = Fleet.Live.build ?trace ?metrics ~seed:spec.seed fleet in
  let sim = Fleet.Live.sim t in
  let fab = Fleet.Live.fabric t in
  let sched = Fleet.Live.scheduler t in
  let cp = Scheduler.control_plane sched in
  let obs = Fleet.Live.obs t in
  let horizon = spec.horizon_ns in
  let window_ns = horizon /. float_of_int windows in
  (* Scenario randomness is split off its own root so it never shares a
     stream with the fleet's construction draws. *)
  let root = Rng.create ~seed:(spec.seed lxor 0x5ced1a) in
  let traffic_rng = Rng.split root in
  let victim_rng = Rng.split root in
  let link_rng = Rng.split root in

  (* Tenants and their SLOs: tiers round-robin over the sorted names. *)
  let tenant_names =
    List.sort compare (List.map Bm_cloud.Tenant.name (Scheduler.tenants sched))
    |> Array.of_list
  in
  let slo = Slo.create ~obs ~now:(fun () -> Sim.now sim) ~window_ns () in
  Array.iteri
    (fun i name -> Slo.declare slo ~tenant:name ~tier:(Slo.tier_of_index i) ())
    tenant_names;
  let tier_of_tenant = Hashtbl.create (Array.length tenant_names) in
  Array.iteri
    (fun i name -> Hashtbl.replace tier_of_tenant name (Slo.tier_of_index i))
    tenant_names;
  let tenant_tier tn =
    Option.value ~default:Slo.Bronze (Hashtbl.find_opt tier_of_tenant tn)
  in
  (* Tag every placement with its tenant's tier so per-class admission
     ceilings (the tiered policy's lever) can bind on evacuations and
     retries; placements made while the fleet was built are backfilled.
     Pure host-side accounting — no simulation operations. *)
  Scheduler.set_classifier sched (fun req ->
      Option.map Slo.tier_name (Hashtbl.find_opt tier_of_tenant req.Scheduler.tenant));
  List.iter
    (fun (name, _) ->
      match Scheduler.request_of sched name with
      | None -> ()
      | Some req ->
        Option.iter
          (fun tier -> Cp.reclassify cp ~name ~cls:(Slo.tier_name tier))
          (Hashtbl.find_opt tier_of_tenant req.Scheduler.tenant))
    (Scheduler.assignments sched);

  (* Per-tenant hot working sets (the first eight placed guests, in name
     order): traffic concentrates on them zipf-style, so a host failure
     that takes a hot guest down is a visible outage, not background
     noise diluted over thousands of idle instances. *)
  let assignments = Scheduler.assignments sched in
  let endpoint = Hashtbl.create (2 * List.length assignments) in
  List.iteri (fun i (name, _) -> Hashtbl.replace endpoint name (i + 1)) assignments;
  let hot_lists = Hashtbl.create 64 in
  List.iter
    (fun (name, _) ->
      match Scheduler.request_of sched name with
      | None -> ()
      | Some req ->
        let cur = Option.value (Hashtbl.find_opt hot_lists req.Scheduler.tenant) ~default:[] in
        if List.length cur < 8 then Hashtbl.replace hot_lists req.Scheduler.tenant (cur @ [ name ]))
    assignments;
  let hot_sets =
    Array.map
      (fun tn -> Array.of_list (Option.value (Hashtbl.find_opt hot_lists tn) ~default:[]))
      tenant_names
  in

  (* Victim tables. Game days aim at the blast radius: host victim [k]
     is the host of tenant [k]'s hottest guest (first distinct hosts in
     tenant order), the remaining hosts follow in a seeded shuffle.
     Link victims are a seeded shuffle of the ToR-to-spine links. *)
  let host_victims =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let add h =
      if h >= 0 && h < fleet.Fleet.Live.hosts && not (Hashtbl.mem seen h) then begin
        Hashtbl.replace seen h ();
        out := h :: !out
      end
    in
    Array.iter
      (fun hot -> if Array.length hot > 0 then
          Option.iter add (Fleet.Live.guest_host t hot.(0)))
      hot_sets;
    let rest = Array.init fleet.Fleet.Live.hosts (fun i -> i) in
    shuffle victim_rng rest;
    Array.iter add rest;
    Array.of_list (List.rev !out)
  in
  let link_victims =
    let names =
      List.filter
        (fun n ->
          match String.index_opt n '>' with
          | Some i -> i + 6 <= String.length n && String.sub n (i + 1) 5 = "spine"
          | None -> false)
        (Fabric.link_names fab)
      |> List.sort compare |> Array.of_list
    in
    shuffle link_rng names;
    names
  in

  (* Compile the fault actions into one Fault plan, so injection and
     recovery bookkeeping (terminal recovery at the horizon included)
     is shared with every other fault consumer. Victims ride alongside
     in per-kind queues, consumed in window-open order — which matches
     the plan's time order. *)
  let host_q = Queue.create () and link_q = Queue.create () in
  let events =
    List.filter_map
      (fun e ->
        match e.action with
        | Host_fail { victim; duration_ns } ->
          Queue.add victim host_q;
          Some { Fault.kind = Fault.Server_failure; at = e.at; duration_ns }
        | Link_fail { victim; duration_ns } ->
          Queue.add victim link_q;
          Some { Fault.kind = Fault.Fabric_link_down; at = e.at; duration_ns }
        | Brownout { duration_ns } ->
          Some { Fault.kind = Fault.Pmd_crash; at = e.at; duration_ns }
        | Vf_stall { duration_ns } ->
          Some { Fault.kind = Fault.Vf_stall; at = e.at; duration_ns }
        | Vf_wedge { duration_ns } ->
          Some { Fault.kind = Fault.Vf_reassign_timeout; at = e.at; duration_ns }
        | Traffic _ | Congest _ | Evacuate _ -> None)
      spec.timeline
  in
  let inj = Fault.create ~obs sim { Fault.seed = spec.seed; horizon_ns = horizon; events } in
  let hosts_down = ref 0 and links_down = ref 0 and brownout = ref 0 in
  Fault.subscribe inj Fault.Server_failure (fun e ->
      match Queue.take_opt host_q with
      | None -> ()
      | Some k ->
        let v = host_victims.(k mod Array.length host_victims) in
        if not (Cp.server_failed cp v) then begin
          Cp.fail_server cp v;
          incr hosts_down;
          Obs.add obs "scenario.host_failed" 1;
          Sim.schedule sim ~delay:e.Fault.duration_ns (fun () ->
              if Cp.server_failed cp v then begin
                Cp.restore_server cp v;
                ignore (Scheduler.retry_stranded sched)
              end)
        end);
  Fault.subscribe inj Fault.Fabric_link_down (fun e ->
      match Queue.take_opt link_q with
      | None -> ()
      | Some k ->
        if Array.length link_victims > 0 then begin
          let name = link_victims.(k mod Array.length link_victims) in
          incr links_down;
          Fabric.fail_link fab ~name;
          Sim.schedule sim ~delay:e.Fault.duration_ns (fun () -> Fabric.repair_link fab ~name)
        end);
  Fault.subscribe inj Fault.Pmd_crash (fun e ->
      incr brownout;
      Sim.schedule sim ~delay:e.Fault.duration_ns (fun () -> decr brownout));

  (* Per-tier admission: roomy Block buckets in normal operation; a
     policy's Shed_tier action swaps a tier onto a tight Shed bucket,
     the paper's fail-fast limiter doing the refusing. [tenant_net]
     holds per-tenant overrides (Shed_tenants); empty unless a policy
     sheds selectively, so the lookup costs one host-side miss. *)
  let roomy () = Limits.custom_net ~policy:Limits.Block ~pps:1e9 ~gbit_s:1e4 () in
  let tight () = Limits.custom_net ~policy:Limits.Shed ~pps:4e3 ~gbit_s:1e4 () in
  let tier_net = [| roomy (); roomy (); roomy () |] in
  let tenant_net : (string, Limits.net) Hashtbl.t = Hashtbl.create 8 in

  (* Open-loop traffic: each tick, every tenant offers requests between
     hot guests (zipf source, distinct destination), scaled by the
     diurnal multiplier and its tier weight. A request resolves exactly
     once: shed at admission, failed when either end's host is down or
     the fabric drops it, delivered with its measured latency. *)
  let scale = ref 1.0 in
  let next_pkt = ref 0 in
  (* Per-tier offered-request counters (host-side bookkeeping, not
     simulation state): the policy's offered_pps signal reads the
     per-window delta. *)
  let tier_offered_counts = Array.make 3 0 in
  let tier_offered_last = Array.make 3 0 in
  let issue ti =
    let hot = hot_sets.(ti) in
    let nh = Array.length hot in
    if nh > 0 then begin
      let tname = tenant_names.(ti) in
      let tier = Slo.tier_of_index ti in
      tier_offered_counts.(tier_index tier) <- tier_offered_counts.(tier_index tier) + 1;
      let si = Rng.zipf traffic_rng ~n:nh ~s:1.1 in
      let di = if nh = 1 then si else (si + 1 + Rng.int traffic_rng (nh - 1)) mod nh in
      let src_g = hot.(si) and dst_g = hot.(di) in
      let size = 16_384 and count = 4 in
      let bytes = size * count in
      let bucket =
        match Hashtbl.find_opt tenant_net tname with
        | Some b -> b
        | None -> tier_net.(tier_index tier)
      in
      if not (Limits.net_admit bucket ~packets:count ~bytes_:bytes) then
        Slo.shed slo ~tenant:tname ~bytes
      else
        match (Fleet.Live.guest_host t src_g, Fleet.Live.guest_host t dst_g) with
        | Some sh, Some dh when not (Cp.server_failed cp sh || Cp.server_failed cp dh) ->
          incr next_pkt;
          let pkt =
            Packet.make ~id:!next_pkt
              ~src:(Hashtbl.find endpoint src_g)
              ~dst:(Hashtbl.find endpoint dst_g)
              ~size ~count ~protocol:Packet.Tcp ~sent_at:(Sim.now sim) ()
          in
          Fabric.send fab ~src_host:sh ~dst_host:dh
            ~on_drop:(fun _ -> Slo.fail slo ~tenant:tname ~bytes)
            ~deliver:(fun p ->
              Slo.deliver slo ~tenant:tname ~bytes
                ~latency_ns:(Float.max 0.0 (Sim.now sim -. p.Packet.sent_at)))
            pkt
        | _ -> Slo.fail slo ~tenant:tname ~bytes
    end
  in
  let ticks_per_window = 4 in
  let tick_ns = window_ns /. float_of_int ticks_per_window in
  Sim.spawn sim (fun () ->
      for _ = 1 to windows * ticks_per_window do
        Array.iteri
          (fun ti _ ->
            let weight =
              match Slo.tier_of_index ti with Slo.Gold -> 1.5 | Slo.Silver -> 1.0 | Slo.Bronze -> 0.75
            in
            let n = int_of_float (Float.round (2.0 *. weight *. !scale)) in
            for _ = 1 to n do
              issue ti
            done)
          tenant_names;
        Sim.delay tick_ns
      done);

  (* Metering: one accounting tick per window, through the fleet's own
     metering path. *)
  Sim.spawn sim (fun () ->
      for _ = 1 to windows do
        Sim.delay window_ns;
        Fleet.Live.meter_tick t ~tick_ns:window_ns
      done);

  (* Cross-rack congestion trains: pseudo endpoints with distinct tags
     so ECMP spreads them over every spine; contends in the link queues
     without consuming guest resources. *)
  let bulk_scale = ref 1.0 in
  let congest ~until_ns =
    let src_host = 0 and dst_host = fleet.Fleet.Live.hosts - 1 in
    for tag = 0 to 3 do
      Sim.spawn sim (fun () ->
          let rec tick () =
            if Sim.clock () < until_ns then begin
              (* Throttle_bulk scales the per-tick burst count; 1.0 is
                 exactly the legacy four bursts. *)
              for _ = 1 to int_of_float (Float.round (4.0 *. !bulk_scale)) do
                incr next_pkt;
                Fabric.send fab ~src_host ~dst_host
                  ~deliver:(fun _ -> ())
                  (Packet.make ~id:!next_pkt ~src:(0x6f00 + tag) ~dst:(0x6f80 + tag)
                     ~size:65_536 ~count:43 ~tag ~protocol:Packet.Udp ~sent_at:(Sim.clock ()) ())
              done;
              Sim.delay (window_ns /. 16.0);
              tick ()
            end
          in
          tick ())
    done
  in

  (* Post-copy evacuation: placement switches instantly (drain), memory
     streams to the new hosts in the background with a small in-flight
     window — the emergency counterpart of Fleet.Live.evacuate's
     pre-copy stream. *)
  let evacuated_guests = ref 0 and evac_bytes = ref 0 in
  let stream_from ~src moves =
    let chunk = Fleet.Live.chunk_mb * 1024 * 1024 in
    let work = Queue.create () in
    List.iter
      (fun (dst, bytes) ->
        let rec split r =
          if r > 0 then begin
            Queue.add (dst, min chunk r) work;
            split (r - chunk)
          end
        in
        split bytes)
      moves;
    let rec pump () =
      match Queue.take_opt work with
      | None -> ()
      | Some (dst, size) ->
        if src = dst then begin
          evac_bytes := !evac_bytes + size;
          pump ()
        end
        else begin
          incr next_pkt;
          Fabric.send fab ~src_host:src ~dst_host:dst
            ~on_drop:(fun _ -> pump ())
            ~deliver:(fun p ->
              evac_bytes := !evac_bytes + p.Packet.size;
              pump ())
            (Packet.make ~id:!next_pkt ~src:0x7000 ~dst:0x7001 ~size
               ~count:(max 1 (size / 1500)) ~protocol:Packet.Tcp ~sent_at:(Sim.now sim) ())
        end
    in
    for _ = 1 to 8 do
      pump ()
    done
  in
  let evacuate_host server =
    let results = Scheduler.drain sched ~server in
    let moves =
      List.filter_map
        (fun (name, r) ->
          match r with
          | Error _ -> None
          | Ok p ->
            let req = Option.get (Scheduler.request_of sched name) in
            Some (p.Cp.server, req.Scheduler.mem_gb * 1024 * 1024 * 1024))
        results
    in
    let n = List.length moves in
    evacuated_guests := !evacuated_guests + n;
    Obs.add obs "scenario.evacuated_guests" n;
    if moves <> [] then stream_from ~src:server moves
  in

  (* The degradation policy. Escalations run under a Guard: brownouts
     make the control-plane action fail, the guard retries with
     backoff, and the breaker defers the policy to the next window
     rather than hammering a browned-out control plane. Relaxations
     undo host-side state and run unguarded, exactly as the legacy
     ladder's undo did. *)
  let guard =
    Fault.Guard.create ~obs
      ~policy:
        {
          Fault.Guard.max_attempts = 3;
          backoff_ns = 1_000.0;
          backoff_mult = 4.0;
          backoff_max_ns = 16_000.0;
          circuit_threshold = 2;
          circuit_cooldown_ns = window_ns;
        }
      sim ~name:(Policy.name policy)
  in
  let pol = Policy.create policy in
  let stage_actions = ref 0 in
  let base_ceiling = Cp.admission_ceiling cp in
  let failed_busy () =
    List.filter_map
      (fun (srv, n) -> if n > 0 && Cp.server_failed cp srv then Some srv else None)
      (Scheduler.occupancy sched)
  in
  let apply_action = function
    | Policy.Shed_tier tier -> tier_net.(tier_index tier) <- tight ()
    | Policy.Restore_tier tier -> tier_net.(tier_index tier) <- roomy ()
    | Policy.Shed_tenants ts -> List.iter (fun tn -> Hashtbl.replace tenant_net tn (tight ())) ts
    | Policy.Restore_tenants ts -> List.iter (fun tn -> Hashtbl.remove tenant_net tn) ts
    | Policy.Tier_ceiling { tier; pps } -> tier_net.(tier_index tier) <- Limits.ceiling_net ~pps ()
    | Policy.Restore_tier_ceiling tier -> tier_net.(tier_index tier) <- roomy ()
    | Policy.Host_ceiling f -> Cp.set_admission_ceiling cp (Float.max 0.5 (base_ceiling *. f))
    | Policy.Restore_host_ceiling -> Cp.set_admission_ceiling cp base_ceiling
    | Policy.Class_ceiling { tier; frac } -> Cp.set_class_ceiling cp ~cls:(Slo.tier_name tier) frac
    | Policy.Restore_class_ceiling tier -> Cp.clear_class_ceiling cp ~cls:(Slo.tier_name tier)
    | Policy.Drain_failed -> List.iter evacuate_host (failed_busy ())
    | Policy.Throttle_bulk f -> bulk_scale := f
    | Policy.Restore_bulk -> bulk_scale := 1.0
  in
  let guarded actions =
    Fault.Guard.run guard (fun () ->
        if !brownout > 0 then Error "control-plane brownout"
        else begin
          List.iter apply_action actions;
          Ok ()
        end)
  in
  let note_stage () =
    Obs.instant obs ~track:"scenario" (Printf.sprintf "stage=%d" (Policy.stage pol))
  in
  (* One signal bundle per closed window: pure reads only (SLO window
     cells, scheduler occupancy, fabric queue depths), so assembling it
     never perturbs the simulation. *)
  let topo = Fabric.topology fab in
  let tor_of h = if h >= 0 && h < fleet.Fleet.Live.hosts then Topology.tor_of topo ~host:h else -1 - h in
  let signals w =
    let distressed = Slo.window_misses slo ~window:w () in
    let failed = failed_busy () in
    let links = Fabric.queue_pressure fab in
    let spine_queued, spine_dropped =
      List.fold_left
        (fun (q, d) (p : Fabric.pressure) ->
          if p.Fabric.spine then (q + p.Fabric.queued_bursts, d + p.Fabric.dropped_pkts_total)
          else (q, d))
        (0, 0) links
    in
    {
      Policy.window = w;
      (* The policy listens to the tiers it protects: deliberately
         shedding Bronze must not read back as sustained distress. *)
      premium_pressure = Slo.window_pressure slo ~tiers:[ Slo.Gold; Slo.Silver ] ~window:w ();
      all_pressure = Slo.window_pressure slo ~window:w ();
      distressed;
      suspects =
        Policy.blast_radius ~sched ~tor_of ~tier_of:tenant_tier ~distressed
          ~failed_hosts:failed;
      gold_p99_ms = Slo.window_tier_p99 slo ~tier:Slo.Gold ~window:w;
      offered_pps =
        List.map
          (fun tier ->
            let i = tier_index tier in
            let d = tier_offered_counts.(i) - tier_offered_last.(i) in
            tier_offered_last.(i) <- tier_offered_counts.(i);
            (tier, float_of_int d *. 1e9 /. window_ns))
          [ Slo.Gold; Slo.Silver; Slo.Bronze ];
      failed_hosts = failed;
      spine_queued;
      spine_dropped;
      links;
      links_down = Fabric.links_down fab;
      brownout = !brownout > 0;
      breaker = Fault.Guard.state guard;
    }
  in
  if degrade then
    Sim.spawn sim (fun () ->
        for w = 0 to windows - 1 do
          Sim.delay window_ns;
          match Policy.decide pol (signals w) with
          | Policy.Hold -> Policy.confirm pol ~ok:true
          | Policy.Escalate actions -> (
            match guarded actions with
            | Ok () ->
              Policy.confirm pol ~ok:true;
              incr stage_actions;
              Obs.add obs "scenario.stage_up" 1;
              note_stage ()
            | Error _ -> Policy.confirm pol ~ok:false)
          | Policy.Reapply actions -> (
            match guarded actions with
            | Ok () ->
              Policy.confirm pol ~ok:true;
              incr stage_actions
            | Error _ -> Policy.confirm pol ~ok:false)
          | Policy.Relax actions ->
            List.iter apply_action actions;
            Policy.confirm pol ~ok:true;
            Obs.add obs "scenario.stage_down" 1;
            note_stage ()
        done);

  (* Schedule the non-fault timeline entries and run. *)
  List.iter
    (fun e ->
      match e.action with
      | Traffic s -> Sim.schedule sim ~delay:e.at (fun () -> scale := s)
      | Congest { duration_ns } ->
        Sim.schedule sim ~delay:e.at (fun () -> congest ~until_ns:(e.at +. duration_ns))
      | Evacuate { victim } ->
        Sim.schedule sim ~delay:e.at (fun () ->
            Sim.spawn sim (fun () ->
                let v = host_victims.(victim mod Array.length host_victims) in
                match
                  Fault.Guard.run guard (fun () ->
                      if !brownout > 0 then Error "control-plane brownout"
                      else begin
                        evacuate_host v;
                        Ok ()
                      end)
                with
                | Ok () ->
                  (* Planned maintenance: the host comes back shortly
                     and stranded guests get another chance. *)
                  Sim.schedule sim ~delay:(0.1 *. horizon) (fun () ->
                      if Cp.server_failed cp v then begin
                        Cp.restore_server cp v;
                        ignore (Scheduler.retry_stranded sched)
                      end)
                | Error _ -> ()))
      | Host_fail _ | Link_fail _ | Brownout _ | Vf_stall _ | Vf_wedge _ -> ())
    spec.timeline;
  Fault.arm inj;
  Sim.run sim;

  (* Score and render. *)
  let scores = Slo.scores slo ~until_ns:horizon in
  let met = List.length (List.filter (fun (s : Slo.tenant_score) -> s.Slo.met) scores) in
  let total = List.length scores in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 scores in
  let delivered = sum (fun (s : Slo.tenant_score) -> s.Slo.delivered) in
  let failed = sum (fun (s : Slo.tenant_score) -> s.Slo.failed) in
  let shed = sum (fun (s : Slo.tenant_score) -> s.Slo.shed_count) in
  let fault_summary = Fault.summary inj in
  let scorecard =
    Report.slo_scorecard
      ~title:
        (Printf.sprintf "game-day scorecard: seed %d, degradation %s" spec.seed
           (if degrade then "on" else "off"))
      scores
    ^ Printf.sprintf "\nSLO met: %d/%d tenants (%d delivered, %d failed, %d shed)\n" met total
        delivered failed shed
    ^ fault_summary ^ "\n"
    ^ Printf.sprintf "%s: max stage %d, %d stage actions, %d guard retries, %d breaker opens\n"
        (Policy.name policy) (Policy.max_stage pol) !stage_actions (Fault.Guard.retries guard)
        (Fault.Guard.circuit_opens guard)
    ^ Printf.sprintf "blast radius: %d hosts failed, %d links failed, %d guests evacuated, %s bytes streamed post-copy\n"
        !hosts_down !links_down !evacuated_guests
        (Report.si (float_of_int !evac_bytes))
  in
  {
    degrade;
    policy = Policy.name policy;
    scores;
    met;
    missed = total - met;
    delivered;
    failed;
    shed;
    max_stage = Policy.max_stage pol;
    stage_actions = !stage_actions;
    guard_retries = Fault.Guard.retries guard;
    breaker_opens = Fault.Guard.circuit_opens guard;
    evacuated_guests = !evacuated_guests;
    evac_bytes = !evac_bytes;
    sim_events = Sim.events_executed sim;
    fault_summary;
    scorecard;
  }
