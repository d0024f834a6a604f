type substrate = Bare_metal | Virtual

type server_kind =
  | Bm_server of { boards : int; board_threads : int }
  | Vm_server of { sellable_threads : int }

type placement = { server : int; substrate : substrate; threads : int }

type strategy = First_fit | Best_fit | Spread

type server = {
  id : int;
  kind : server_kind;
  ceiling : float;  (** per-host sellable fraction of capacity *)
  mutable used_boards : int;
  mutable used_threads : int;
  mutable failed : bool;
}

type record = { placement : placement; vcpus : int; image : Image.t; cls : string option }

type t = {
  mutable servers : server array;  (* indexed by id: ids are dense from 0, in add order *)
  instances : (string, record) Hashtbl.t;
  mutable admission_ceiling : float;
  mutable admission_rejections : int;
  (* Per-class admission: a class (e.g. an SLO tier) may be capped at a
     fraction of fleet thread capacity, the tiered counterpart of the
     single global ceiling. *)
  class_ceilings : (string, float) Hashtbl.t;
  class_used : (string, int) Hashtbl.t;  (* threads placed per class *)
  mutable class_rejections : int;
}

let create () =
  {
    servers = [||];
    instances = Hashtbl.create 32;
    admission_ceiling = 1.0;
    admission_rejections = 0;
    class_ceilings = Hashtbl.create 4;
    class_used = Hashtbl.create 4;
    class_rejections = 0;
  }

let set_admission_ceiling t c =
  assert (c > 0.0 && c <= 1.0);
  t.admission_ceiling <- c

let admission_ceiling t = t.admission_ceiling
let admission_rejections t = t.admission_rejections

let set_class_ceiling t ~cls c =
  if not (c > 0.0 && c <= 1.0) then
    invalid_arg "Control_plane.set_class_ceiling: ceiling must be in (0, 1]";
  Hashtbl.replace t.class_ceilings cls c

let clear_class_ceiling t ~cls = Hashtbl.remove t.class_ceilings cls
let class_rejections t = t.class_rejections
let class_used_of t cls = Option.value ~default:0 (Hashtbl.find_opt t.class_used cls)

let class_charge t cls threads =
  match cls with
  | None -> ()
  | Some c -> Hashtbl.replace t.class_used c (class_used_of t c + threads)

let add_server ?(ceiling = 1.0) t kind =
  if not (ceiling > 0.0 && ceiling <= 1.0) then
    invalid_arg "Control_plane.add_server: ceiling must be in (0, 1]";
  let id = Array.length t.servers in
  t.servers <-
    Array.append t.servers
      [| { id; kind; ceiling; used_boards = 0; used_threads = 0; failed = false } |];
  id

let known t id = id >= 0 && id < Array.length t.servers

let set_failed t id failed ~what =
  if not (known t id) then invalid_arg ("Control_plane." ^ what ^ ": unknown server");
  t.servers.(id).failed <- failed

let fail_server t id = set_failed t id true ~what:"fail_server"
let restore_server t id = set_failed t id false ~what:"restore_server"
let server_failed t id = known t id && t.servers.(id).failed
let server_ids t = List.init (Array.length t.servers) Fun.id

(* Remaining capacity in the unit the strategy compares: free boards for
   bare metal, free threads for virtual. Failed servers offer none. *)
let headroom server ~substrate =
  if server.failed then 0
  else
    match (server.kind, substrate) with
    | Bm_server { boards; _ }, Bare_metal -> boards - server.used_boards
    | Vm_server { sellable_threads }, Virtual -> sellable_threads - server.used_threads
    | Bm_server _, Virtual | Vm_server _, Bare_metal -> 0

(* The per-host ceiling shrinks what each server will sell: a Bm base
   with [ceiling 0.9] and 16 boards sells at most 14, a Vm host with 88
   threads sells at most 79. Since sold threads never exceed
   [floor (ceiling * capacity)], per-host thread utilization never
   exceeds the ceiling. *)
let allowed_boards server boards = int_of_float (server.ceiling *. float_of_int boards)

let allowed_threads server threads = int_of_float (server.ceiling *. float_of_int threads)

let try_place_on server ~vcpus ~substrate =
  if server.failed then None
  else
    match (server.kind, substrate) with
  | Bm_server { boards; board_threads }, Bare_metal
    when server.used_boards < allowed_boards server boards && board_threads >= vcpus ->
    server.used_boards <- server.used_boards + 1;
    server.used_threads <- server.used_threads + board_threads;
    Some { server = server.id; substrate = Bare_metal; threads = board_threads }
  | Vm_server { sellable_threads }, Virtual
    when allowed_threads server sellable_threads - server.used_threads >= vcpus ->
    server.used_threads <- server.used_threads + vcpus;
    Some { server = server.id; substrate = Virtual; threads = vcpus }
  | (Bm_server _ | Vm_server _), (Bare_metal | Virtual) -> None

let capacity_of = function
  | Bm_server { boards; board_threads } -> boards * board_threads
  | Vm_server { sellable_threads } -> sellable_threads

let sellable_threads t =
  Array.fold_left (fun acc s -> if s.failed then acc else acc + capacity_of s.kind) 0 t.servers

let used_threads t = Array.fold_left (fun acc s -> acc + s.used_threads) 0 t.servers

let server_utilization t id =
  if not (known t id) then 0.0
  else
    let s = t.servers.(id) in
    let cap = capacity_of s.kind in
    if cap = 0 then 0.0 else float_of_int s.used_threads /. float_of_int cap

let server_ceiling t id = if known t id then t.servers.(id).ceiling else 1.0

(* Headroom-based admission: a placement that would push fleet thread
   utilization past the ceiling is refused even though the server could
   physically host it — production control planes keep slack for failure
   evacuation and load spikes rather than packing to 100%. *)
let over_ceiling t =
  t.admission_ceiling < 1.0
  && float_of_int (used_threads t)
     > (t.admission_ceiling *. float_of_int (sellable_threads t)) +. 1e-9

(* The per-class counterpart of [over_ceiling]: a class with a ceiling
   set may not hold more than that fraction of fleet thread capacity.
   Classless placements and classes without a ceiling are never over. *)
let over_class t ~cls ~threads =
  match cls with
  | None -> false
  | Some c -> (
    match Hashtbl.find_opt t.class_ceilings c with
    | None -> false
    | Some frac ->
      float_of_int (class_used_of t c + threads)
      > (frac *. float_of_int (sellable_threads t)) +. 1e-9)

(* Give a placement's board and threads back to its server ([sign]
   -1), or take them again ([sign] 1). *)
let charge_placement server placement ~sign =
  (match placement.substrate with
  | Bare_metal -> server.used_boards <- server.used_boards + sign
  | Virtual -> ());
  server.used_threads <- server.used_threads + (sign * placement.threads)

let undo_placement server placement = charge_placement server placement ~sign:(-1)

let place t ~name ~vcpus ?prefer ?(strategy = First_fit) ?(avoid = []) ?cls ~image () =
  if Hashtbl.mem t.instances name then Error (name ^ " already placed")
  else begin
    let substrates = match prefer with Some s -> [ s ] | None -> [ Bare_metal; Virtual ] in
    let ceiling_hit = ref false in
    let class_hit = ref false in
    (* Order candidate servers by strategy: first-fit keeps declaration
       order; best-fit packs the fullest feasible server; spread
       balances onto the emptiest. [avoid] (anti-affinity) removes
       servers from consideration entirely: skipping them in a stable
       sort of every server visits the rest in the order a sort of the
       rest alone would. *)
    let candidates substrate =
      let by_headroom a b = compare (headroom a ~substrate) (headroom b ~substrate) in
      let sorted cmp =
        let a = Array.copy t.servers in
        Array.stable_sort cmp a;
        a
      in
      match strategy with
      | First_fit -> t.servers
      | Best_fit -> sorted by_headroom
      | Spread -> sorted (fun a b -> by_headroom b a)
    in
    let rec scan = function
      | [] ->
        if !ceiling_hit then begin
          t.admission_rejections <- t.admission_rejections + 1;
          Error
            (Printf.sprintf "admission ceiling %.0f%% reached" (t.admission_ceiling *. 100.0))
        end
        else if !class_hit then begin
          t.class_rejections <- t.class_rejections + 1;
          Error
            (Printf.sprintf "class ceiling reached for %s"
               (Option.value ~default:"?" cls))
        end
        else Error "no capacity for request"
      | substrate :: rest ->
        let servers = candidates substrate in
        let rec over_servers i =
          if i = Array.length servers then scan rest
          else
            let server = servers.(i) in
            let avoided = match avoid with [] -> false | _ -> List.mem server.id avoid in
            if avoided then over_servers (i + 1)
            else
              match try_place_on server ~vcpus ~substrate with
              | Some placement ->
                if over_ceiling t then begin
                  undo_placement server placement;
                  ceiling_hit := true;
                  over_servers (i + 1)
                end
                else if over_class t ~cls ~threads:placement.threads then begin
                  undo_placement server placement;
                  class_hit := true;
                  over_servers (i + 1)
                end
                else begin
                  Hashtbl.replace t.instances name { placement; vcpus; image; cls };
                  class_charge t cls placement.threads;
                  Ok placement
                end
              | None -> over_servers (i + 1)
        in
        over_servers 0
    in
    scan substrates
  end

let lookup t name = Option.map (fun r -> r.placement) (Hashtbl.find_opt t.instances name)

(* Retag a placed instance with a class, moving its threads between the
   class accounts. Lets a classifier installed after placement backfill
   class accounting for the existing fleet. Never refuses: ceilings
   bind on future placements, not on retags. *)
let reclassify t ~name ~cls =
  match Hashtbl.find_opt t.instances name with
  | None -> ()
  | Some r ->
    class_charge t r.cls (-r.placement.threads);
    class_charge t (Some cls) r.placement.threads;
    Hashtbl.replace t.instances name { r with cls = Some cls }

let release t name =
  match Hashtbl.find_opt t.instances name with
  | None -> ()
  | Some { placement; cls; _ } ->
    Hashtbl.remove t.instances name;
    class_charge t cls (-placement.threads);
    undo_placement t.servers.(placement.server) placement

let cold_migrate t ~name ~to_ =
  match Hashtbl.find_opt t.instances name with
  | None -> Error (name ^ " not placed")
  | Some { vcpus; image; placement; cls } ->
    if placement.substrate = to_ then Error "already on that substrate"
    else begin
      release t name;
      match place t ~name ~vcpus ~prefer:to_ ?cls ~image () with
      | Ok p -> Ok p
      | Error e ->
        (* Roll back: restore the previous placement. *)
        charge_placement t.servers.(placement.server) placement ~sign:1;
        Hashtbl.replace t.instances name { placement; vcpus; image; cls };
        class_charge t cls placement.threads;
        Error e
    end

(* Re-place every instance of a failed server, in name order so the
   outcome is deterministic. Each victim tries its own substrate first
   (a bm-guest whose board survived can live-migrate within the bm
   fleet; a vm restarts warm on another virtualization server), then
   falls back to the other substrate — the cold-migration path. *)
let evacuate t ~server ?(strategy = First_fit) () =
  fail_server t server;
  let victims =
    Hashtbl.fold
      (fun name r acc -> if r.placement.server = server then (name, r) :: acc else acc)
      t.instances []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.map
    (fun (name, { placement; vcpus; image; cls }) ->
      release t name;
      let try_sub sub = place t ~name ~vcpus ~prefer:sub ~strategy ?cls ~image () in
      let result =
        match try_sub placement.substrate with
        | Ok p -> Ok p
        | Error _ ->
          let other =
            match placement.substrate with Bare_metal -> Virtual | Virtual -> Bare_metal
          in
          try_sub other
      in
      (name, result))
    victims
