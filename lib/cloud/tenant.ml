open Bm_engine

type quota = { max_guests : int; max_vcpus : int }

type t = {
  name : string;
  quota : quota;
  obs : Obs.t;
  mutable guests : int;
  mutable vcpus : int;
  mutable rejections : int;
  mutable guest_ns : float;
  mutable bytes : float;
  mutable ios : float;
  m_guest_s : string;  (* metric names, built once *)
  m_bytes : string;
  m_ios : string;
  m_rejected : string;
}

let create ?(obs = Obs.none) ~name quota =
  if quota.max_guests < 0 || quota.max_vcpus < 0 then
    invalid_arg "Tenant.create: negative quota";
  {
    name;
    quota;
    obs;
    guests = 0;
    vcpus = 0;
    rejections = 0;
    guest_ns = 0.0;
    bytes = 0.0;
    ios = 0.0;
    m_guest_s = "cloud.tenant." ^ name ^ ".guest_s";
    m_bytes = "cloud.tenant." ^ name ^ ".bytes";
    m_ios = "cloud.tenant." ^ name ^ ".ios";
    m_rejected = "cloud.tenant." ^ name ^ ".rejected";
  }

let name t = t.name

let admit t ~vcpus =
  if vcpus <= 0 then invalid_arg "Tenant.admit: vcpus must be positive";
  if t.guests >= t.quota.max_guests then begin
    t.rejections <- t.rejections + 1;
    Obs.add t.obs t.m_rejected 1;
    Error (Printf.sprintf "tenant %s at guest quota (%d)" t.name t.quota.max_guests)
  end
  else if t.vcpus + vcpus > t.quota.max_vcpus then begin
    t.rejections <- t.rejections + 1;
    Obs.add t.obs t.m_rejected 1;
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

let meter t ~guest_ns ~bytes ~ios =
  t.guest_ns <- t.guest_ns +. guest_ns;
  t.bytes <- t.bytes +. bytes;
  t.ios <- t.ios +. ios;
  if guest_ns > 0.0 then Obs.add_float t.obs t.m_guest_s guest_ns ~per:1e9;
  if bytes > 0.0 then Obs.add_float t.obs t.m_bytes bytes ~per:1.0;
  if ios > 0.0 then Obs.add_float t.obs t.m_ios ios ~per:1.0

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
