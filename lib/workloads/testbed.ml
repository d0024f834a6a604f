open Bm_engine
open Bm_cloud
open Bm_guest
open Bm_hyp

type t = {
  sim : Sim.t;
  rng : Rng.t;
  fabric : Vswitch.fabric;
  net : Bm_fabric.Fabric.t option;
  storage : Blockstore.t;
  obs : Obs.t;
  fault : Fault.t;
}

let make ?(seed = 2020) ?(storage_kind = Blockstore.Cloud_ssd) ?trace ?metrics ?faults ?topology
    () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let obs = Obs.of_sim ?trace ?metrics sim in
  (* The fabric's ECMP salt comes from a seed-derived generator of its
     own, not from [Rng.split rng]: threading it through the main chain
     would shift every later component's stream and perturb existing
     no-topology runs. *)
  let net =
    Option.map
      (fun topo -> Bm_fabric.Fabric.create ~obs sim (Rng.create ~seed:(seed + 0x5eed)) topo)
      topology
  in
  let fabric = Vswitch.create_fabric ?net () in
  let storage = Blockstore.create ~obs sim (Rng.split rng) ~kind:storage_kind () in
  let fault =
    match faults with
    | None -> Fault.none
    | Some plan ->
      let f = Fault.create ~obs sim plan in
      (* Arm now: the windows open on the agenda as the run reaches
         them; components built below subscribe before time advances. *)
      Fault.arm f;
      f
  in
  { sim; rng; fabric; net; storage; obs; fault }

let bm_server ?profile ?vfs t =
  Bm_hypervisor.create_server ~obs:t.obs ~fault:t.fault t.sim (Rng.split t.rng) ~fabric:t.fabric
    ~storage:t.storage ?profile ?vfs ()

let bm_guest ?profile ?net_limits ?blk_limits t =
  let server = bm_server ?profile t in
  match Bm_hypervisor.provision server ~name:"bm0" ?net_limits ?blk_limits () with
  | Ok inst -> (server, inst)
  | Error e -> failwith e

(* Two bm-guests co-resident on one base server — the Fig. 9 topology
   ("we started two bm-guests on the same server"). *)
let bm_pair ?profile ?net_limits t =
  let server = bm_server ?profile t in
  let provision name =
    match Bm_hypervisor.provision server ~name ?net_limits () with
    | Ok inst -> inst
    | Error e -> failwith e
  in
  (server, provision "bm0", provision "bm1")

let vm_host ?vfs t =
  Kvm.create_host ~obs:t.obs ~fault:t.fault t.sim (Rng.split t.rng) ~fabric:t.fabric
    ~storage:t.storage ?vfs ()

let vm_guest ?blk_limits ?(host_load = 0.5) ?(pinning = Preempt.Exclusive) t =
  let host = vm_host t in
  let config = Kvm.default_config ~name:"vm0" in
  let config =
    {
      config with
      Kvm.vcpus = 32;
      host_load;
      pinning;
      blk_limits = Option.value blk_limits ~default:config.Kvm.blk_limits;
    }
  in
  (host, Kvm.create_vm host config)

(* Two vm-guests on a dual-socket host with headroom for both — the
   Fig. 9 comparison ("the server having two Xeon E5-2682 v4 CPUs and
   384 GB of memory … sufficient resource to run two vm-guests"). *)
let vm_pair ?net_limits t =
  let host = vm_host t in
  let mk name =
    let config = Kvm.default_config ~name in
    let config =
      {
        config with
        Kvm.vcpus = 16;
        net_limits = Option.value net_limits ~default:config.Kvm.net_limits;
      }
    in
    Kvm.create_vm host config
  in
  (host, mk "vm0", mk "vm1")

let physical ?sockets t = Physical.create t.sim ~name:"phys0" ?sockets ~storage:t.storage ()

(* A beefy load-generator box on its own switch, so client costs never
   contend with the system under test. *)
let client_box t =
  let cores = Bm_hw.Cores.create t.sim ~spec:Bm_hw.Cpu_spec.xeon_platinum_8163 ~threads:96 () in
  let vswitch = Vswitch.create ~obs:t.obs t.sim ~fabric:t.fabric ~cores () in
  Physical.create t.sim ~name:"client" ~spec:Bm_hw.Cpu_spec.xeon_platinum_8163 ~sockets:2 ~vswitch
    ~storage:t.storage ()

let run t = Sim.run t.sim
