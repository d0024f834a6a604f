open Bm_engine

type quota = { max_guests : int; max_vcpus : int }

type t = {
  name : string;
  quota : quota;
  metrics : Metrics.t option;
  mutable guests : int;
  mutable vcpus : int;
  mutable rejections : int;
  mutable guest_ns : float;
  mutable bytes : float;
  mutable ios : float;
  m_guest_s : string;  (* metric names, built once *)
  m_bytes : string;
  m_ios : string;
}

let create ?(obs = Obs.none) ~name quota =
  if quota.max_guests < 0 || quota.max_vcpus < 0 then
    invalid_arg "Tenant.create: negative quota";
  {
    name;
    quota;
    metrics = Obs.metrics obs;
    guests = 0;
    vcpus = 0;
    rejections = 0;
    guest_ns = 0.0;
    bytes = 0.0;
    ios = 0.0;
    m_guest_s = "cloud.tenant." ^ name ^ ".guest_s";
    m_bytes = "cloud.tenant." ^ name ^ ".bytes";
    m_ios = "cloud.tenant." ^ name ^ ".ios";
  }

let name t = t.name

let admit t ~vcpus =
  if vcpus <= 0 then invalid_arg "Tenant.admit: vcpus must be positive";
  if t.guests >= t.quota.max_guests then begin
    t.rejections <- t.rejections + 1;
    Metrics.incr_opt t.metrics ("cloud.tenant." ^ t.name ^ ".rejected");
    Error (Printf.sprintf "tenant %s at guest quota (%d)" t.name t.quota.max_guests)
  end
  else if t.vcpus + vcpus > t.quota.max_vcpus then begin
    t.rejections <- t.rejections + 1;
    Metrics.incr_opt t.metrics ("cloud.tenant." ^ t.name ^ ".rejected");
    Error (Printf.sprintf "tenant %s at vCPU quota (%d)" t.name t.quota.max_vcpus)
  end
  else begin
    t.guests <- t.guests + 1;
    t.vcpus <- t.vcpus + vcpus;
    Ok ()
  end

let release t ~vcpus =
  if t.guests <= 0 || t.vcpus < vcpus then
    invalid_arg ("Tenant.release: " ^ t.name ^ " released more than it admitted");
  t.guests <- t.guests - 1;
  t.vcpus <- t.vcpus - vcpus

let guests t = t.guests
let rejections t = t.rejections

let meter t ?(guest_ns = 0.0) ?(bytes = 0.0) ?(ios = 0.0) () =
  t.guest_ns <- t.guest_ns +. guest_ns;
  t.bytes <- t.bytes +. bytes;
  t.ios <- t.ios +. ios;
  match t.metrics with
  | None -> ()
  | Some m ->
    if guest_ns > 0.0 then Metrics.incr m ~by:(guest_ns /. 1e9) t.m_guest_s;
    if bytes > 0.0 then Metrics.incr m ~by:bytes t.m_bytes;
    if ios > 0.0 then Metrics.incr m ~by:ios t.m_ios

let guest_seconds t = t.guest_ns /. 1e9
let bytes t = t.bytes
let ios t = t.ios

let row_header = [ "tenant"; "guests"; "vcpus"; "guest-s"; "bytes"; "ios"; "rejected" ]

let row t =
  [
    t.name;
    string_of_int t.guests;
    string_of_int t.vcpus;
    Printf.sprintf "%.2f" (guest_seconds t);
    Printf.sprintf "%.0f" t.bytes;
    Printf.sprintf "%.0f" t.ios;
    string_of_int t.rejections;
  ]
