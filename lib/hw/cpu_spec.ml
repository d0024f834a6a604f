type t = {
  model : string;
  base_ghz : float;
  turbo_ghz : float;
  cores : int;
  threads : int;
  single_thread_mark : float;
  l3_mb : float;
  mem_channels : int;
  mem_mt_s : int;
  tdp_w : float;
}

(* Single-thread marks are normalised to Xeon E5-2682 v4 = 1.0, using the
   ratios the paper quotes from cpubenchmark.net: E3-1240 v6 = 1.31×
   E5-2682 v4 (§4.2) and i7-8086K = 1.6× E5-2699 v4 (§1). *)

let xeon_e5_2682_v4 =
  {
    model = "Xeon E5-2682 v4";
    base_ghz = 2.5;
    turbo_ghz = 3.0;
    cores = 16;
    threads = 32;
    single_thread_mark = 1.0;
    l3_mb = 40.0;
    mem_channels = 4;
    mem_mt_s = 2400;
    tdp_w = 120.0;
  }

let xeon_e5_2699_v4 =
  {
    model = "Xeon E5-2699 v4";
    base_ghz = 2.2;
    turbo_ghz = 3.6;
    cores = 22;
    threads = 44;
    single_thread_mark = 1.05;
    l3_mb = 55.0;
    mem_channels = 4;
    mem_mt_s = 2400;
    tdp_w = 145.0;
  }

let xeon_e5_2650_v4 =
  {
    model = "Xeon E5-2650 v4";
    base_ghz = 2.2;
    turbo_ghz = 2.9;
    cores = 12;
    threads = 24;
    single_thread_mark = 0.95;
    l3_mb = 30.0;
    mem_channels = 4;
    mem_mt_s = 2400;
    tdp_w = 105.0;
  }

let xeon_platinum_8163 =
  {
    model = "Xeon Platinum 8163";
    base_ghz = 2.5;
    turbo_ghz = 3.1;
    cores = 24;
    threads = 48;
    single_thread_mark = 1.08;
    l3_mb = 33.0;
    mem_channels = 6;
    mem_mt_s = 2666;
    (* custom cloud SKU: the paper's W/vCPU figures imply ~135 W *)
    tdp_w = 135.0;
  }

let xeon_e3_1240_v6 =
  {
    model = "Xeon E3-1240 v6";
    base_ghz = 3.7;
    turbo_ghz = 4.1;
    cores = 4;
    threads = 8;
    single_thread_mark = 1.31;
    l3_mb = 8.0;
    mem_channels = 2;
    mem_mt_s = 2400;
    tdp_w = 72.0;
  }

let core_i7_8086k =
  {
    model = "Core i7-8086K";
    base_ghz = 4.0;
    turbo_ghz = 5.0;
    cores = 6;
    threads = 12;
    single_thread_mark = 1.68;
    l3_mb = 12.0;
    mem_channels = 2;
    mem_mt_s = 2666;
    tdp_w = 95.0;
  }

let core_i7_8700 =
  {
    model = "Core i7-8700";
    base_ghz = 3.2;
    turbo_ghz = 4.6;
    cores = 6;
    threads = 12;
    single_thread_mark = 1.55;
    l3_mb = 12.0;
    mem_channels = 2;
    mem_mt_s = 2666;
    tdp_w = 65.0;
  }

let atom_c3558 =
  {
    model = "Atom C3558";
    base_ghz = 2.2;
    turbo_ghz = 2.2;
    cores = 4;
    threads = 4;
    single_thread_mark = 0.35;
    l3_mb = 8.0;
    mem_channels = 2;
    mem_mt_s = 2400;
    tdp_w = 16.0;
  }

let base_server_e5 =
  {
    model = "Xeon E5 (base board, 16 cores)";
    base_ghz = 2.5;
    turbo_ghz = 2.5;
    cores = 16;
    threads = 32;
    single_thread_mark = 1.0;
    l3_mb = 40.0;
    mem_channels = 4;
    mem_mt_s = 2400;
    tdp_w = 115.0;
  }

let all =
  [
    xeon_e5_2682_v4;
    xeon_e5_2699_v4;
    xeon_e5_2650_v4;
    xeon_platinum_8163;
    xeon_e3_1240_v6;
    core_i7_8086k;
    core_i7_8700;
    atom_c3558;
    base_server_e5;
  ]

let find model = List.find_opt (fun spec -> spec.model = model) all

let peak_mem_bw_gb_s spec =
  float_of_int spec.mem_channels *. float_of_int spec.mem_mt_s *. 8.0 /. 1000.0
