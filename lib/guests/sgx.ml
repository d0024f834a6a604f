open Bm_hw

(* Usable Enclave Page Cache per socket: 128 MB on the era's parts,
   ~93 MB of it usable. *)
let epc_mb_per_socket = 93

type t = {
  instance : Instance.t;
  name : string;
  mutable transitions : int;
}

(* EENTER/EEXIT cost ~8k cycles each way on the era's parts. *)
let transition_cycles = 2.0 *. 8_000.0

let create instance ~name ~epc_mb =
  match instance.Instance.kind with
  | Instance.Virtual ->
    Error "SGX on a vm-guest requires a special KVM/QEMU build and guest drivers (see paper S6)"
  | Instance.Bare_metal _ | Instance.Physical ->
    let sockets =
      max 1 (Cores.thread_count instance.Instance.cores / instance.Instance.spec.Cpu_spec.threads)
    in
    let available = sockets * epc_mb_per_socket in
    if epc_mb <= 0 then Error "enclave size must be positive"
    else if epc_mb > available then
      Error (Printf.sprintf "EPC exhausted: requested %dMB, %dMB available" epc_mb available)
    else Ok { instance; name; transitions = 0 }

let ecall t ~work_ns =
  assert (work_ns >= 0.0);
  t.transitions <- t.transitions + 1;
  let ghz = Cores.ghz t.instance.Instance.cores in
  t.instance.Instance.exec_ns ((transition_cycles /. ghz) +. work_ns)

let transitions t = t.transitions

(* Toy MRENCLAVE: a keyed digest of the enclave name. *)
let measurement name = Firmware.sign ~key:0x5158 ~payload:name

let attest t = measurement t.name
let verify_quote ~name ~quote = measurement name = quote
