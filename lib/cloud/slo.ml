open Bm_engine

type tier = Gold | Silver | Bronze

let tier_name = function Gold -> "gold" | Silver -> "silver" | Bronze -> "bronze"

let tier_of_index i =
  match (i mod 3 + 3) mod 3 with 0 -> Gold | 1 -> Silver | _ -> Bronze

type target = {
  availability : float;
  p99_ms : float;
  goodput : float;
  compliant_windows : float;
}

(* Gold 99% / 0.25 ms / 97% over 3/4 of windows; Silver 97% / 0.5 ms /
   95% over 5/8; Bronze 90% / 2 ms / 85% over half. *)
let default_target = function
  | Gold -> { availability = 0.99; p99_ms = 0.25; goodput = 0.97; compliant_windows = 0.75 }
  | Silver -> { availability = 0.97; p99_ms = 0.5; goodput = 0.95; compliant_windows = 0.625 }
  | Bronze -> { availability = 0.90; p99_ms = 2.0; goodput = 0.85; compliant_windows = 0.5 }

(* One window's worth of a tenant's resolutions. The latency histogram
   covers 100 ns .. 100 ms at 1% relative error — every fabric path of
   interest, with bounded memory per (tenant, window). *)
type cell = {
  mutable delivered : int;
  mutable failed : int;
  mutable shed : int;
  mutable offered_bytes : float;
  mutable delivered_bytes : float;
  latency : Stats.Histogram.t;
}

let new_cell () =
  {
    delivered = 0;
    failed = 0;
    shed = 0;
    offered_bytes = 0.0;
    delivered_bytes = 0.0;
    latency = Stats.Histogram.create ~lo:100.0 ~hi:1e8 ();
  }

type tenant_state = { tier : tier; target : target; cells : (int, cell) Hashtbl.t }

type t = {
  now : unit -> float;
  window_ns : float;
  tenants : (string, tenant_state) Hashtbl.t;
  obs : Obs.t;
}

let create ?(obs = Obs.none) ~now ~window_ns () =
  if not (window_ns > 0.0) then invalid_arg "Slo.create: window_ns must be positive";
  { now; window_ns; tenants = Hashtbl.create 64; obs }

let declare t ~tenant ~tier () =
  if Hashtbl.mem t.tenants tenant then
    invalid_arg (Printf.sprintf "Slo.declare: duplicate tenant %S" tenant);
  Hashtbl.replace t.tenants tenant { tier; target = default_target tier; cells = Hashtbl.create 16 }

let state t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Slo: tenant %S not declared" tenant)

let cell_now t st =
  let w = int_of_float (t.now () /. t.window_ns) in
  match Hashtbl.find_opt st.cells w with
  | Some c -> c
  | None ->
    let c = new_cell () in
    Hashtbl.replace st.cells w c;
    c

let deliver t ~tenant ~bytes ~latency_ns =
  let c = cell_now t (state t tenant) in
  c.delivered <- c.delivered + 1;
  c.offered_bytes <- c.offered_bytes +. float_of_int bytes;
  c.delivered_bytes <- c.delivered_bytes +. float_of_int bytes;
  Stats.Histogram.add c.latency latency_ns;
  Obs.add t.obs "cloud.slo.delivered" 1

let fail t ~tenant ~bytes =
  let c = cell_now t (state t tenant) in
  c.failed <- c.failed + 1;
  c.offered_bytes <- c.offered_bytes +. float_of_int bytes;
  Obs.add t.obs "cloud.slo.failed" 1

let shed t ~tenant ~bytes =
  let c = cell_now t (state t tenant) in
  c.shed <- c.shed + 1;
  c.offered_bytes <- c.offered_bytes +. float_of_int bytes;
  Obs.add t.obs "cloud.slo.shed" 1

(* --- scoring -------------------------------------------------------- *)

let resolved c = c.delivered + c.failed + c.shed

let cell_ok (target : target) c =
  let n = resolved c in
  if n = 0 then true
  else begin
    let avail = float_of_int c.delivered /. float_of_int n in
    let goodput =
      if c.offered_bytes > 0.0 then c.delivered_bytes /. c.offered_bytes else 1.0
    in
    let p99_ms =
      if Stats.Histogram.count c.latency = 0 then 0.0
      else Stats.Histogram.percentile c.latency 99.0 /. 1e6
    in
    avail >= target.availability && goodput >= target.goodput && p99_ms <= target.p99_ms
  end

type tenant_score = {
  tenant : string;
  tier : tier;
  target : target;
  offered : int;
  delivered : int;
  failed : int;
  shed_count : int;
  offered_bytes : float;
  delivered_bytes : float;
  availability : float;
  p99_ms : float;
  goodput : float;
  windows : int;
  ok_windows : int;
  met : bool;
}

let score_tenant name (st : tenant_state) ~nwindows =
  let agg = new_cell () in
  let hist = ref agg.latency in
  let ok = ref 0 in
  for w = 0 to nwindows - 1 do
    match Hashtbl.find_opt st.cells w with
    | None -> incr ok (* no demand, no violation *)
    | Some c ->
      if cell_ok st.target c then incr ok;
      agg.delivered <- agg.delivered + c.delivered;
      agg.failed <- agg.failed + c.failed;
      agg.shed <- agg.shed + c.shed;
      agg.offered_bytes <- agg.offered_bytes +. c.offered_bytes;
      agg.delivered_bytes <- agg.delivered_bytes +. c.delivered_bytes;
      hist := Stats.Histogram.merge !hist c.latency
  done;
  let n = resolved agg in
  {
    tenant = name;
    tier = st.tier;
    target = st.target;
    offered = n;
    delivered = agg.delivered;
    failed = agg.failed;
    shed_count = agg.shed;
    offered_bytes = agg.offered_bytes;
    delivered_bytes = agg.delivered_bytes;
    availability = (if n = 0 then 1.0 else float_of_int agg.delivered /. float_of_int n);
    p99_ms =
      (if Stats.Histogram.count !hist = 0 then 0.0
       else Stats.Histogram.percentile !hist 99.0 /. 1e6);
    goodput =
      (if agg.offered_bytes > 0.0 then agg.delivered_bytes /. agg.offered_bytes else 1.0);
    windows = nwindows;
    ok_windows = !ok;
    met =
      nwindows = 0
      || float_of_int !ok /. float_of_int nwindows >= st.target.compliant_windows -. 1e-9;
  }

let scores t ~until_ns =
  let nwindows = int_of_float (ceil (until_ns /. t.window_ns)) in
  Hashtbl.fold (fun name st acc -> (name, st) :: acc) t.tenants []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (name, st) -> score_tenant name st ~nwindows)

(* A tenant participates in a window's pressure only when it actually
   resolved traffic there: a tenant idle through a traffic gap (no cell,
   or a cell with nothing resolved) must not dilute the denominator by
   counting as "meeting" an SLO it was never offered. *)
let window_active st ~window =
  match Hashtbl.find_opt st.cells window with
  | None -> None
  | Some c -> if resolved c > 0 then Some c else None

let window_pressure t ?tiers ~window () =
  let counted tier = match tiers with None -> true | Some ts -> List.mem tier ts in
  let total = ref 0 and missing = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      match window_active st ~window with
      | None -> ()
      | Some c ->
        if counted st.tier then begin
          incr total;
          if not (cell_ok st.target c) then incr missing
        end)
    t.tenants;
  if !total = 0 then 0.0 else float_of_int !missing /. float_of_int !total

let window_misses t ~window () =
  Hashtbl.fold
    (fun name st acc ->
      match window_active st ~window with
      | Some c when not (cell_ok st.target c) -> (name, st.tier) :: acc
      | Some _ | None -> acc)
    t.tenants []
  |> List.sort compare

let window_tier_p99 t ~tier ~window =
  Hashtbl.fold
    (fun _ (st : tenant_state) worst ->
      if st.tier <> tier then worst
      else
        match window_active st ~window with
        | Some c when Stats.Histogram.count c.latency > 0 ->
          Float.max worst (Stats.Histogram.percentile c.latency 99.0 /. 1e6)
        | Some _ | None -> worst)
    t.tenants 0.0

let row_header =
  [ "tenant"; "tier"; "offered"; "ok"; "shed"; "avail"; "p99 ms"; "goodput"; "windows"; "slo" ]

let pct x = Printf.sprintf "%.1f%%" (x *. 100.0)

let row s =
  [
    s.tenant;
    tier_name s.tier;
    string_of_int s.offered;
    string_of_int s.delivered;
    string_of_int s.shed_count;
    pct s.availability;
    Printf.sprintf "%.2f" s.p99_ms;
    pct s.goodput;
    Printf.sprintf "%d/%d" s.ok_windows s.windows;
    (if s.met then "met" else "MISS");
  ]
