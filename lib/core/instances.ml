open Bm_hw

type t = {
  name : string;
  cpu : Cpu_spec.t;
  sockets : int;
  vcpus : int;
  mem_gb : int;
  net_pps : float;
  net_gbit_s : float;
  storage_iops : float;
  storage_mb_s : float;
  max_boards_per_server : int;
}

let make ~name ~cpu ?(sockets = 1) ~mem_gb ~net_pps ~net_gbit_s ~storage_iops ~storage_mb_s
    ~max_boards_per_server () =
  {
    name;
    cpu;
    sockets;
    vcpus = sockets * cpu.Cpu_spec.threads;
    mem_gb;
    net_pps;
    net_gbit_s;
    storage_iops;
    storage_mb_s;
    max_boards_per_server;
  }

let eval_instance =
  make ~name:"ebm.e5-2682v4.32" ~cpu:Cpu_spec.xeon_e5_2682_v4 ~mem_gb:64 ~net_pps:4e6
    ~net_gbit_s:10.0 ~storage_iops:25e3 ~storage_mb_s:300.0 ~max_boards_per_server:8 ()

let high_frequency =
  make ~name:"ebm.e3-1240v6.8" ~cpu:Cpu_spec.xeon_e3_1240_v6 ~mem_gb:32 ~net_pps:1.5e6
    ~net_gbit_s:4.0 ~storage_iops:10e3 ~storage_mb_s:150.0 ~max_boards_per_server:16 ()

let catalogue =
  [
    eval_instance;
    high_frequency;
    make ~name:"ebm.i7-8700.12" ~cpu:Cpu_spec.core_i7_8700 ~mem_gb:32 ~net_pps:2e6 ~net_gbit_s:5.0
      ~storage_iops:15e3 ~storage_mb_s:200.0 ~max_boards_per_server:16 ();
    make ~name:"ebm.i7-8086k.12" ~cpu:Cpu_spec.core_i7_8086k ~mem_gb:64 ~net_pps:2e6
      ~net_gbit_s:5.0 ~storage_iops:15e3 ~storage_mb_s:200.0 ~max_boards_per_server:12 ();
    make ~name:"ebm.atom-c3558.4" ~cpu:Cpu_spec.atom_c3558 ~mem_gb:8 ~net_pps:0.5e6
      ~net_gbit_s:1.0 ~storage_iops:5e3 ~storage_mb_s:80.0 ~max_boards_per_server:16 ();
    make ~name:"ebm.platinum8163x2.96" ~cpu:Cpu_spec.xeon_platinum_8163 ~sockets:2 ~mem_gb:384
      ~net_pps:6e6 ~net_gbit_s:25.0 ~storage_iops:50e3 ~storage_mb_s:600.0
      ~max_boards_per_server:1 ();
  ]


let net_limits t = Bm_cloud.Limits.custom_net ~pps:t.net_pps ~gbit_s:t.net_gbit_s ()
let blk_limits t = Bm_cloud.Limits.custom_blk ~iops:t.storage_iops ~mb_s:t.storage_mb_s ()

let pp fmt t =
  Format.fprintf fmt "%s: %s x%d, %d vCPU, %dGB, %.1fM pps/%.0fGbit, %.0fK IOPS/%.0fMB/s, <=%d/server"
    t.name t.cpu.Cpu_spec.model t.sockets t.vcpus t.mem_gb (t.net_pps /. 1e6) t.net_gbit_s
    (t.storage_iops /. 1e3) t.storage_mb_s t.max_boards_per_server
