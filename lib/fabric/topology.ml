type link_params = { gbit_s : float; latency_ns : float; queue_capacity : int }

type t = {
  hosts : int;
  tors : int;
  spines : int;
  host_link : link_params;
  spine_link : link_params;
}

let check_link_params what { gbit_s; latency_ns; queue_capacity } =
  if not (gbit_s > 0.0) then invalid_arg (Printf.sprintf "Topology: %s gbit_s must be > 0" what);
  if not (latency_ns >= 0.0) then
    invalid_arg (Printf.sprintf "Topology: %s latency_ns must be >= 0" what);
  if queue_capacity < 1 then
    invalid_arg (Printf.sprintf "Topology: %s queue_capacity must be >= 1" what)

let clos ~hosts ~tors ~spines ?(host_gbit_s = 100.0) ?(spine_gbit_s = 100.0)
    ?(host_latency_ns = 1_000.0) ?(spine_latency_ns = 4_000.0) ?(queue_capacity = 64) () =
  if hosts < 1 then invalid_arg "Topology.clos: hosts must be >= 1";
  if tors < 1 then invalid_arg "Topology.clos: tors must be >= 1";
  if hosts < tors then invalid_arg "Topology.clos: need at least one host per ToR";
  if spines < 0 then invalid_arg "Topology.clos: spines must be >= 0";
  if spines = 0 && tors > 1 then
    invalid_arg "Topology.clos: a multi-ToR topology needs at least one spine";
  let host_link = { gbit_s = host_gbit_s; latency_ns = host_latency_ns; queue_capacity } in
  let spine_link = { gbit_s = spine_gbit_s; latency_ns = spine_latency_ns; queue_capacity } in
  check_link_params "host link" host_link;
  check_link_params "spine link" spine_link;
  { hosts; tors; spines; host_link; spine_link }

let two_host () = clos ~hosts:2 ~tors:1 ~spines:0 ~spine_latency_ns:1_000.0 ()

let hosts_per_tor = 32

let for_hosts ~hosts () =
  if hosts < 1 then invalid_arg "Topology.for_hosts: hosts must be >= 1";
  let tors = min hosts ((hosts + hosts_per_tor - 1) / hosts_per_tor) in
  let spines = if tors = 1 then 0 else max 2 ((tors + 3) / 4) in
  clos ~hosts ~tors ~spines ()

let tor_of t ~host =
  if host < 0 || host >= t.hosts then invalid_arg "Topology.tor_of: host out of range";
  host * t.tors / t.hosts

let parse_spec spec =
  if String.trim spec = "two_host" then Ok (two_host ())
  else begin
    let hosts = ref 2
    and tors = ref 1
    and spines = ref 0
    and host_gbit = ref 100.0
    and spine_gbit = ref 100.0
    and host_lat_us = ref 1.0
    and spine_lat_us = ref 4.0
    and queue = ref 64 in
    let spines_given = ref false in
    let parse_pair err pair =
      match err with
      | Some _ -> err
      | None -> (
        match String.index_opt pair '=' with
        | None -> Some (Printf.sprintf "expected key=value, got %S" pair)
        | Some i -> (
          let key = String.sub pair 0 i in
          let v = String.sub pair (i + 1) (String.length pair - i - 1) in
          let int_into r =
            match int_of_string_opt v with
            | Some n ->
              r := n;
              None
            | None -> Some (Printf.sprintf "%s expects an integer, got %S" key v)
          in
          let float_into r =
            match float_of_string_opt v with
            | Some f ->
              r := f;
              None
            | None -> Some (Printf.sprintf "%s expects a number, got %S" key v)
          in
          match key with
          | "hosts" -> int_into hosts
          | "tors" -> int_into tors
          | "spines" ->
            spines_given := true;
            int_into spines
          | "host_gbit" -> float_into host_gbit
          | "spine_gbit" -> float_into spine_gbit
          | "host_lat_us" -> float_into host_lat_us
          | "spine_lat_us" -> float_into spine_lat_us
          | "queue" -> int_into queue
          | _ ->
            Some
              (Printf.sprintf
                 "unknown topology key %S (expected hosts, tors, spines, host_gbit, spine_gbit, \
                  host_lat_us, spine_lat_us, queue)"
                 key)))
    in
    let err =
      List.fold_left parse_pair None
        (String.split_on_char ',' spec |> List.map String.trim
        |> List.filter (fun s -> s <> ""))
    in
    match err with
    | Some e -> Error e
    | None -> (
      (* A multi-ToR spec without an explicit spine count gets one spine
         per ToR, the non-blocking default. *)
      if (not !spines_given) && !tors > 1 then spines := !tors;
      try
        Ok
          (clos ~hosts:!hosts ~tors:!tors ~spines:!spines ~host_gbit_s:!host_gbit
             ~spine_gbit_s:!spine_gbit
             ~host_latency_ns:(!host_lat_us *. 1e3)
             ~spine_latency_ns:(!spine_lat_us *. 1e3)
             ~queue_capacity:!queue ())
      with Invalid_argument m -> Error m)
  end

(* [%g] when that round-trips, otherwise the shortest longer precision
   that does, so [parse_spec (render t) = Ok t]. *)
let float_text x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  go 6

let render t =
  Printf.sprintf
    "hosts=%d,tors=%d,spines=%d,host_gbit=%s,spine_gbit=%s,host_lat_us=%s,spine_lat_us=%s,queue=%d"
    t.hosts t.tors t.spines (float_text t.host_link.gbit_s) (float_text t.spine_link.gbit_s)
    (float_text (t.host_link.latency_ns /. 1e3))
    (float_text (t.spine_link.latency_ns /. 1e3))
    t.host_link.queue_capacity
