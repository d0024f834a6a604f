open Bm_engine

type request = {
  name : string;
  tenant : string;
  vcpus : int;
  mem_gb : int;
  prefer : Control_plane.substrate option;
  group : string option;
}

let request ~name ~tenant ~vcpus ?mem_gb ?prefer ?group () =
  if vcpus <= 0 then invalid_arg "Scheduler.request: vcpus must be positive";
  let mem_gb = match mem_gb with Some m -> m | None -> 2 * vcpus in
  { name; tenant; vcpus; mem_gb; prefer; group }

type guest = { req : request; mutable placement : Control_plane.placement option }

(* The read-only views, derived from the guest table and tagged with
   the generation they were built at. Per-host arrays are indexed by
   server id (control-plane ids are dense from 0) up to the highest id
   holding a guest. *)
type snapshot = {
  built_at : int;
  assigned : (string * Control_plane.placement) list;  (* sorted by name *)
  unplaced : string list;  (* sorted *)
  on_host : guest list array;  (* sorted by name *)
  host_count : int array;
  host_tenants : string list array;  (* distinct, sorted *)
  tenant_hosts : (string, int list ref) Hashtbl.t;  (* distinct, sorted *)
}

type t = {
  cp : Control_plane.t;
  obs : Obs.t;
  tenants : (string, Tenant.t) Hashtbl.t;
  guests : (string, guest) Hashtbl.t;
  groups : (string, (int, int) Hashtbl.t) Hashtbl.t;  (* group -> host -> members *)
  mutable classifier : request -> string option;
      (* placement class per request, for per-class admission ceilings *)
  mutable generation : int;  (* bumped by every write the views can see *)
  mutable snapshot : snapshot option;
}

let create ?(obs = Obs.none) cp =
  {
    cp;
    obs;
    tenants = Hashtbl.create 16;
    guests = Hashtbl.create 1024;
    groups = Hashtbl.create 64;
    classifier = (fun _ -> None);
    generation = 0;
    snapshot = None;
  }

let control_plane t = t.cp
let set_classifier t f = t.classifier <- f
let generation t = t.generation

(* The only writers of the guest table and of guest placements: each
   bumps [generation], which is what invalidates the view snapshot. *)
let touch t = t.generation <- t.generation + 1

let set_placement t g p =
  g.placement <- p;
  touch t

let add_guest t g =
  Hashtbl.replace t.guests g.req.name g;
  touch t

let remove_guest t name =
  Hashtbl.remove t.guests name;
  touch t

let register_tenant t tenant =
  let name = Tenant.name tenant in
  if Hashtbl.mem t.tenants name then
    invalid_arg ("Scheduler.register_tenant: duplicate tenant " ^ name);
  Hashtbl.replace t.tenants name tenant

let tenant t name = Hashtbl.find_opt t.tenants name

let tenants t =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
  |> List.sort (fun a b -> compare (Tenant.name a) (Tenant.name b))

(* --- anti-affinity bookkeeping ------------------------------------- *)

let group_hosts t = function
  | None -> []
  | Some g -> (
    match Hashtbl.find_opt t.groups g with
    | None -> []
    | Some hosts ->
      Hashtbl.fold (fun host n acc -> if n > 0 then host :: acc else acc) hosts []
      |> List.sort compare)

let group_add t group host =
  match group with
  | None -> ()
  | Some g ->
    let hosts =
      match Hashtbl.find_opt t.groups g with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace t.groups g h;
        h
    in
    Hashtbl.replace hosts host (1 + Option.value ~default:0 (Hashtbl.find_opt hosts host))

let group_remove t group host =
  match group with
  | None -> ()
  | Some g -> (
    match Hashtbl.find_opt t.groups g with
    | None -> ()
    | Some hosts -> (
      match Hashtbl.find_opt hosts host with
      | None -> ()
      | Some 1 -> Hashtbl.remove hosts host
      | Some n -> Hashtbl.replace hosts host (n - 1)))

(* --- placement ------------------------------------------------------ *)

(* First-fit-decreasing order: biggest request first so the small ones
   fill the gaps; names break ties, so the order — and therefore the
   whole assignment — is a function of the request list alone. *)
let ffd_order reqs =
  List.stable_sort
    (fun a b ->
      match compare b.vcpus a.vcpus with 0 -> compare a.name b.name | c -> c)
    reqs

let try_place_cp t req ~substrates =
  let avoid = group_hosts t req.group in
  let rec go = function
    | [] -> Error "no capacity for request"
    | prefer :: rest -> (
      match
        Control_plane.place t.cp ~name:req.name ~vcpus:req.vcpus ?prefer ~avoid
          ?cls:(t.classifier req) ~image:Image.centos7 ()
      with
      | Ok p -> Ok p
      | Error e -> if rest = [] then Error e else go rest)
  in
  go substrates

let substrates_of req =
  match req.prefer with Some s -> [ Some s ] | None -> [ None ]

let place t req =
  if Hashtbl.mem t.guests req.name then Error (req.name ^ " already scheduled")
  else
    match Hashtbl.find_opt t.tenants req.tenant with
    | None -> Error ("unknown tenant " ^ req.tenant)
    | Some tn -> (
      match Tenant.admit tn ~vcpus:req.vcpus with
      | Error e ->
        Obs.add t.obs "cloud.sched.rejected" 1;
        Error e
      | Ok () -> (
        match try_place_cp t req ~substrates:(substrates_of req) with
        | Ok p ->
          add_guest t { req; placement = Some p };
          group_add t req.group p.Control_plane.server;
          Obs.add t.obs "cloud.sched.placed" 1;
          Ok p
        | Error e ->
          Tenant.release tn ~vcpus:req.vcpus;
          Obs.add t.obs "cloud.sched.rejected" 1;
          Error e))

let place_batch t reqs =
  List.map (fun req -> (req.name, place t req)) (ffd_order reqs)

let release t name =
  match Hashtbl.find_opt t.guests name with
  | None -> ()
  | Some g ->
    (match g.placement with
    | Some p ->
      group_remove t g.req.group p.Control_plane.server;
      Control_plane.release t.cp name
    | None -> ());
    (match Hashtbl.find_opt t.tenants g.req.tenant with
    | Some tn -> Tenant.release tn ~vcpus:g.req.vcpus
    | None -> ());
    remove_guest t name

(* --- evacuation and rebalance --------------------------------------- *)

(* Re-place one already-admitted guest (its quota is held); the victim's
   own substrate is tried first, then the other — the cold-migration
   fallback of {!Control_plane.evacuate}. *)
let replace_guest t g ~first =
  let substrates =
    match first with
    | Some Control_plane.Bare_metal -> [ Some Control_plane.Bare_metal; Some Control_plane.Virtual ]
    | Some Control_plane.Virtual -> [ Some Control_plane.Virtual; Some Control_plane.Bare_metal ]
    | None -> substrates_of g.req
  in
  match try_place_cp t g.req ~substrates with
  | Ok p ->
    set_placement t g (Some p);
    group_add t g.req.group p.Control_plane.server;
    Ok p
  | Error e -> Error e

let drain t ~server =
  Control_plane.fail_server t.cp server;
  let victims =
    Hashtbl.fold
      (fun _ g acc ->
        match g.placement with
        | Some p when p.Control_plane.server = server -> g :: acc
        | Some _ | None -> acc)
      t.guests []
    |> List.map (fun g -> g.req)
    |> ffd_order
    |> List.map (fun req -> Hashtbl.find t.guests req.name)
  in
  (* Release every victim first so the re-placement sees the drained
     host's anti-affinity slots as free. *)
  let old_substrate =
    List.map
      (fun g ->
        let p = Option.get g.placement in
        group_remove t g.req.group p.Control_plane.server;
        Control_plane.release t.cp g.req.name;
        set_placement t g None;
        (g, p.Control_plane.substrate))
      victims
  in
  List.map
    (fun (g, substrate) ->
      let result = replace_guest t g ~first:(Some substrate) in
      (match result with
      | Ok _ -> Obs.add t.obs "cloud.sched.evacuated" 1
      | Error _ -> Obs.add t.obs "cloud.sched.stranded" 1);
      (g.req.name, result))
    old_substrate

let stranded_guests t =
  Hashtbl.fold (fun _ g acc -> if g.placement = None then g :: acc else acc) t.guests []
  |> List.map (fun g -> g.req)
  |> ffd_order
  |> List.map (fun req -> Hashtbl.find t.guests req.name)

let retry_stranded t =
  List.map
    (fun g ->
      let result = replace_guest t g ~first:None in
      (match result with
      | Ok _ -> Obs.add t.obs "cloud.sched.evacuated" 1
      | Error _ -> ());
      (g.req.name, result))
    (stranded_guests t)

(* Smallest guest first: many cheap moves beat one big one. *)
let by_size a b =
  match compare a.req.vcpus b.req.vcpus with 0 -> compare a.req.name b.req.name | c -> c

let rec insert_by_size g = function
  | h :: rest when by_size h g < 0 -> h :: insert_by_size g rest
  | gs -> g :: gs

(* The placed guests of every host, smallest first. *)
let guests_by_host t =
  let index = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ g ->
      match g.placement with
      | Some p ->
        let s = p.Control_plane.server in
        Hashtbl.replace index s (g :: Option.value ~default:[] (Hashtbl.find_opt index s))
      | None -> ())
    t.guests;
  Hashtbl.filter_map_inplace (fun _ gs -> Some (List.sort by_size gs)) index;
  index

(* A donor is a host more than [band] above the fleet mean; one call
   makes at most [max_moves] moves. *)
let band = 0.05
let max_moves = 64

let rebalance t () =
  let ids = Control_plane.server_ids t.cp in
  let util id = Control_plane.server_utilization t.cp id in
  let mean =
    match ids with
    | [] -> 0.0
    | ids -> List.fold_left (fun acc id -> acc +. util id) 0.0 ids /. float_of_int (List.length ids)
  in
  let ceiling = mean +. band in
  (* The candidate index is built on the first donor above the band, so
     a balanced fleet pays nothing, and then kept current as guests
     leave and land instead of being rebuilt per move. *)
  let index = lazy (guests_by_host t) in
  let on host = Option.value ~default:[] (Hashtbl.find_opt (Lazy.force index) host) in
  let land_on (p : Control_plane.placement) g =
    Hashtbl.replace (Lazy.force index) p.server (insert_by_size g (on p.server))
  in
  let moves = ref [] and budget = ref max_moves in
  List.iter
    (fun donor ->
      let continue_ = ref true in
      while !continue_ && !budget > 0 && util donor > ceiling do
        match on donor with
        | [] -> continue_ := false
        | g :: rest -> (
          Hashtbl.replace (Lazy.force index) donor rest;
          let p = Option.get g.placement in
          group_remove t g.req.group p.Control_plane.server;
          Control_plane.release t.cp g.req.name;
          set_placement t g None;
          let avoid = donor :: group_hosts t g.req.group in
          match
            Control_plane.place t.cp ~name:g.req.name ~vcpus:g.req.vcpus
              ~prefer:p.Control_plane.substrate ~strategy:Control_plane.Spread ~avoid
              ?cls:(t.classifier g.req) ~image:Image.centos7 ()
          with
          | Ok p' ->
            set_placement t g (Some p');
            group_add t g.req.group p'.Control_plane.server;
            land_on p' g;
            Obs.add t.obs "cloud.sched.moves" 1;
            moves := (g.req.name, donor, p'.Control_plane.server) :: !moves;
            decr budget
          | Error _ ->
            (* Nowhere better — put it back where it was and stop
               draining this donor. *)
            (match replace_guest t g ~first:(Some p.Control_plane.substrate) with
            | Ok p'' -> land_on p'' g
            | Error _ -> Obs.add t.obs "cloud.sched.stranded" 1);
            continue_ := false)
      done)
    ids;
  List.rev !moves

(* --- views ----------------------------------------------------------- *)

let lookup t name =
  match Hashtbl.find_opt t.guests name with Some g -> g.placement | None -> None

let request_of t name =
  match Hashtbl.find_opt t.guests name with Some g -> Some g.req | None -> None

(* Every view below comes from one sort of the placed guests by name.
   Walking that order backwards and consing leaves each per-host list
   sorted; walking hosts backwards leaves each tenant's host list sorted
   and distinct; walking tenants backwards does the same for each host's
   tenant list. *)
let build_snapshot t =
  let placed = ref [] and unplaced = ref [] in
  Hashtbl.iter
    (fun name g ->
      match g.placement with
      | Some _ -> placed := g :: !placed
      | None -> unplaced := name :: !unplaced)
    t.guests;
  let placed = Array.of_list !placed in
  Array.stable_sort (fun a b -> String.compare a.req.name b.req.name) placed;
  let server g = (Option.get g.placement).Control_plane.server in
  let n = Array.fold_left (fun acc g -> max acc (server g + 1)) 0 placed in
  let on_host = Array.make n [] and host_count = Array.make n 0 and assigned = ref [] in
  for i = Array.length placed - 1 downto 0 do
    let g = placed.(i) in
    let s = server g in
    on_host.(s) <- g :: on_host.(s);
    host_count.(s) <- host_count.(s) + 1;
    assigned := (g.req.name, Option.get g.placement) :: !assigned
  done;
  let tenant_hosts = Hashtbl.create 16 in
  for s = n - 1 downto 0 do
    List.iter
      (fun g ->
        match Hashtbl.find_opt tenant_hosts g.req.tenant with
        | None -> Hashtbl.replace tenant_hosts g.req.tenant (ref [ s ])
        | Some hosts -> if List.hd !hosts <> s then hosts := s :: !hosts)
      on_host.(s)
  done;
  let host_tenants = Array.make n [] in
  Hashtbl.fold (fun tenant hosts acc -> (tenant, !hosts) :: acc) tenant_hosts []
  |> List.sort (fun (a, _) (b, _) -> String.compare b a)
  |> List.iter (fun (tenant, hosts) ->
         List.iter (fun s -> host_tenants.(s) <- tenant :: host_tenants.(s)) hosts);
  {
    built_at = t.generation;
    assigned = !assigned;
    unplaced = List.sort String.compare !unplaced;
    on_host;
    host_count;
    host_tenants;
    tenant_hosts;
  }

let snapshot t =
  match t.snapshot with
  | Some s when s.built_at = t.generation -> s
  | Some _ | None ->
    let s = build_snapshot t in
    t.snapshot <- Some s;
    s

let assignments t = (snapshot t).assigned
let stranded t = (snapshot t).unplaced
let guest_count t = Hashtbl.length t.guests

(* [a.(server)] for a host holding a guest, [empty] for any other id. *)
let per_host a server empty = if server >= 0 && server < Array.length a then a.(server) else empty

let guests_on t ~server =
  List.map (fun g -> g.req.name) (per_host (snapshot t).on_host server [])

let hosts_of_tenant t ~tenant =
  match Hashtbl.find_opt (snapshot t).tenant_hosts tenant with Some hosts -> !hosts | None -> []

let tenants_on_host t ~server = per_host (snapshot t).host_tenants server []

let occupancy t =
  let s = snapshot t in
  List.map (fun id -> (id, per_host s.host_count id 0)) (Control_plane.server_ids t.cp)

let anti_affinity_violations t =
  let by_group_host = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ g ->
      match (g.req.group, g.placement) with
      | Some grp, Some p ->
        let key = (grp, p.Control_plane.server) in
        Hashtbl.replace by_group_host key
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_group_host key))
      | _ -> ())
    t.guests;
  Hashtbl.fold (fun (grp, host) n acc -> if n > 1 then (grp, host) :: acc else acc) by_group_host []
  |> List.sort compare
