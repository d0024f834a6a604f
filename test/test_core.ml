(* Tests for the bmhive facade: catalogue, cost model, comparison,
   report rendering, experiment registry. *)

open Bmhive

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Instances (Table 3) *)

let test_catalogue_contents () =
  check_bool "several families" true (List.length Instances.catalogue >= 5);
  let find name = List.find_opt (fun i -> i.Instances.name = name) Instances.catalogue in
  (match find "ebm.e5-2682v4.32" with
  | Some i ->
    check_int "32 vCPU" 32 i.Instances.vcpus;
    check_int "8 boards/server" 8 i.Instances.max_boards_per_server
  | None -> Alcotest.fail "eval instance missing");
  check_bool "unknown absent" true (find "nope" = None);
  (* §3.3: at most 16 boards per server across the catalogue. *)
  List.iter
    (fun i ->
      check_bool "1..16 boards" true
        (i.Instances.max_boards_per_server >= 1 && i.Instances.max_boards_per_server <= 16))
    Instances.catalogue

let test_catalogue_limits_usable () =
  let i = Instances.eval_instance in
  let net = Instances.net_limits i in
  let blk = Instances.blk_limits i in
  (* Admitting within limits must not raise and must throttle eventually. *)
  let sim = Bm_engine.Sim.create () in
  Bm_engine.Sim.spawn sim (fun () ->
      for _ = 1 to 100_000 do
        ignore (Bm_cloud.Limits.net_admit net ~packets:64 ~bytes_:(64 * 64))
      done;
      for _ = 1 to 1_000 do
        ignore (Bm_cloud.Limits.blk_admit blk ~bytes_:4096)
      done);
  Bm_engine.Sim.run sim;
  check_bool "time advanced under throttle" true (Bm_engine.Sim.now sim > 1e6)

let test_high_frequency_single_thread () =
  (* §4.2: the E3 instance is 31% faster single-thread. *)
  let e3 = Instances.high_frequency.Instances.cpu in
  let e5 = Instances.eval_instance.Instances.cpu in
  Alcotest.(check (float 1e-6)) "1.31x" 1.31
    (e3.Bm_hw.Cpu_spec.single_thread_mark /. e5.Bm_hw.Cpu_spec.single_thread_mark)

(* ------------------------------------------------------------------ *)
(* Cost model (§3.5) *)

let test_density_matches_paper () =
  let d = Cost_model.density () in
  check_int "vm sellable 88" 88 d.Cost_model.vm_sellable_ht;
  check_int "bm sellable 256" 256 d.Cost_model.bm_sellable_ht;
  check_bool "2.9x ratio" true (Float.abs (Cost_model.sellable_ht_per_rack_ratio () -. 2.909) < 0.01)

let test_tdp_matches_paper () =
  let vm = Cost_model.vm_watts_per_vcpu () in
  let bm = Cost_model.bm_single_board_watts_per_vcpu () in
  check_bool "vm ~3.06" true (Float.abs (vm -. 3.06) < 0.1);
  check_bool "bm ~3.17" true (Float.abs (bm -. 3.17) < 0.1);
  check_bool "bm slightly above vm" true (bm > vm)

let test_price () =
  Alcotest.(check (float 1e-9)) "10% below" 0.90 Cost_model.price_ratio_bm_over_vm

(* ------------------------------------------------------------------ *)
(* Comparison (Table 1) *)

let test_comparison_derivations () =
  let vm = Comparison.properties Comparison.Vm_based in
  let st = Comparison.properties Comparison.Single_tenant_bm in
  let bh = Comparison.properties Comparison.Bm_hive in
  check_bool "vm exposed to side channels" true (Comparison.side_channel_exposed vm);
  check_bool "bm-hive not exposed" false (Comparison.side_channel_exposed bh);
  check_bool "single-tenant hands over the platform" false (Comparison.provider_secure st);
  check_bool "bm-hive provider-secure" true (Comparison.provider_secure bh);
  check_bool "bm-hive denser than single-tenant" true
    (bh.Comparison.guests_per_server > st.Comparison.guests_per_server);
  check_int "16 bm-guests max" 16 bh.Comparison.guests_per_server

let test_comparison_rows_shape () =
  let rows = Comparison.rows () in
  check_int "three services" 3 (List.length rows);
  List.iter (fun row -> check_int "five columns" 5 (List.length row)) rows

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_table_rendering () =
  let s = Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check_bool "has borders" true (String.length s > 0 && s.[0] = '+');
  (* All lines equally wide. *)
  let lines = String.split_on_char '\n' s in
  let widths = List.map String.length (List.filter (fun l -> l <> "") lines) in
  (match widths with
  | w :: rest -> List.iter (fun w' -> check_int "aligned" w w') rest
  | [] -> Alcotest.fail "empty table");
  check_bool "cell present" true
    (List.exists (fun l -> Astring.String.is_infix ~affix:"333" l) lines)

(* Each cell renders as the formatter its constructor names, at si's
   unit boundaries, for negative values and where pct and the fixed
   decimals round. *)
let test_report_formatters () =
  Alcotest.(check string) "si M" "3.20M" (Report.si 3.2e6);
  Alcotest.(check string) "si K" "25.0K" (Report.si 25e3);
  Alcotest.(check string) "pct" "4.2%" (Report.pct 0.0417);
  Alcotest.(check string) "f1" "1.5" (Report.f1 1.50);
  List.iter
    (fun (cell, text) -> Alcotest.(check string) text text (Report.show cell))
    Report.
      [
        (Si 0.0, "0.0"); (Si 999.9, "999.9"); (Si 999.95, "1000.0"); (Si 1e3, "1.0K");
        (Si 999_999.0, "1000.0K"); (Si 1e6, "1.00M"); (Si 999_999_999.0, "1000.00M");
        (Si 1e9, "1.00G"); (Si (-999.9), "-999.9"); (Si (-1e3), "-1.0K");
        (Si (-2.5e6), "-2.50M"); (Si (-1e9), "-1.00G");
        (Pct 0.0417, "4.2%"); (Pct 0.04149, "4.1%"); (Pct 0.0005, "0.1%"); (Pct 0.00049, "0.0%");
        (Pct (-0.125), "-12.5%"); (Pct 0.99951, "100.0%");
        (F1 0.8, "0.8"); (F1 0.15, "0.1"); (F1 (-0.05), "-0.1"); (F2 1.0, "1.00");
        (F2 2.675, "2.67"); (F3 1.0, "1.000"); (F3 1.0005, "1.000");
        (Int 12000, "12000"); (Int (-3), "-3"); (Text "64GB", "64GB");
      ];
  let row ok = Report.(check ~paper:(Pct 0.0382) ~measured:(Pct 0.032) ~ok [ Text "x" ]) in
  Alcotest.(check (list string)) "check row"
    [ "x"; "3.8%"; "3.2%"; "DIFF" ]
    (List.map Report.show (row false));
  check_bool "check keeps the measured value" true
    (match row true with [ _; _; Report.Pct m; Report.Text "ok" ] -> m = 0.032 | _ -> false)

(* ------------------------------------------------------------------ *)
(* Experiments registry *)

let test_registry_complete () =
  (* Every table and figure of the paper is present. *)
  let ids = Experiments.ids () in
  List.iter
    (fun required -> check_bool required true (List.mem required ids))
    [
      "table1"; "table2"; "table3"; "fig1"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
      "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "sec2_3"; "sec3_5"; "sec4_3net";
      "sec4_3blk"; "sec6"; "ablation_reg"; "ablation_dma"; "ablation_batch";
      "ablation_offload"; "availability"; "evacuation"; "overload";
    ];
  check_bool "unknown id rejected" true
    (match Experiments.run Experiments.default_ctx [ "nonsense" ] with
    | [ (_, Error _) ] -> true
    | _ -> false)

let quick7 = { Experiments.default_ctx with Experiments.quick = true; seed = 7 }

let run_quick id =
  match Experiments.run quick7 [ id ] with
  | [ (_, Ok o) ] -> o
  | [ (_, Error e) ] -> Alcotest.fail e
  | _ -> Alcotest.fail "one result per id"

let test_cheap_experiments_run () =
  (* The static/Monte-Carlo experiments are cheap enough for the suite. *)
  List.iter
    (fun id ->
      let o = run_quick id in
      check_bool (id ^ " produced rows") true (o.Experiments.rows <> []);
      List.iter
        (fun row -> check_int (id ^ " row width") (List.length o.Experiments.header) (List.length row))
        o.Experiments.rows)
    [ "table1"; "table2"; "table3"; "fig1"; "sec3_5" ]

let test_fig7_outcome_bands () =
  let o = run_quick "fig7" in
  (* 12 benchmarks + geomean. *)
  check_int "13 rows" 13 (List.length o.Experiments.rows);
  List.iter
    (fun row ->
      match row with
      | [ _bench; _phys; Report.F3 bm; Report.F3 vm ] ->
        check_bool "bm above physical" true (bm > 1.0);
        check_bool "vm below bm" true (vm < bm)
      | _ -> Alcotest.fail "unexpected row shape")
    o.Experiments.rows

let test_sec6_asic_improves () =
  let o = run_quick "sec6" in
  (* The latency row: ASIC strictly better than FPGA. *)
  match List.rev o.Experiments.rows with
  | [ _metric; Report.F1 fpga; Report.F1 asic; _paper ] :: _ ->
    check_bool "asic lower latency" true (asic < fpga)
  | _ -> Alcotest.fail "unexpected sec6 shape"

let test_determinism_of_experiments () =
  let a = run_quick "table2" in
  let b = run_quick "table2" in
  check_bool "same seed, same rows" true (a.Experiments.rows = b.Experiments.rows)

(* ------------------------------------------------------------------ *)
(* Parallel sweeps *)

let test_parallel_map_matches_sequential () =
  let xs = List.init 40 (fun i -> i) in
  let f x = x * x in
  let seq = List.map f xs in
  List.iter
    (fun jobs -> Alcotest.(check (list int)) "order preserved" seq (Parallel.map ~jobs f xs))
    [ 1; 2; 4; 7 ]

let test_parallel_map_empty_and_small () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Parallel.map ~jobs:4 (fun x -> x * 3) [ 3 ])

let test_parallel_map_propagates_exception () =
  try
    ignore (Parallel.map ~jobs:3 (fun x -> if x = 5 then failwith "boom" else x) [ 1; 5; 9 ]);
    Alcotest.fail "exception swallowed"
  with Failure m -> Alcotest.(check string) "original exception" "boom" m

let test_parallel_default_jobs_positive () =
  check_bool "recommended domains >= 1" true (Parallel.default_jobs () >= 1)

(* Experiment cells share nothing: the same ids swept on 1 and on 3
   domains must produce bit-identical outcomes, in argument order; so
   must one experiment whose cells get the 3 domains. *)
let test_run_many_jobs_invariant () =
  let ids = [ "table1"; "table3"; "sec3_5"; "evacuation" ] in
  let at jobs ids =
    List.map
      (fun (id, r) -> (id, Result.map (fun o -> o.Experiments.rows) r))
      (Experiments.run { quick7 with jobs } ids)
  in
  let r1 = at 1 ids in
  check_bool "identical outcomes for any job count" true (r1 = at 3 ids);
  Alcotest.(check (list string)) "argument order" ids (List.map fst r1);
  check_bool "one experiment's cells on 3 domains" true (at 1 [ "vf_scale" ] = at 3 [ "vf_scale" ])

let test_run_many_unknown_id () =
  match Experiments.run { quick7 with jobs = 2 } [ "table1"; "nonsense" ] with
  | [ ("table1", Ok _); ("nonsense", Error _) ] -> ()
  | _ -> Alcotest.fail "unknown id must surface as Error without aborting the rest"

let suites =
  [
    ( "core.instances",
      [
        Alcotest.test_case "catalogue" `Quick test_catalogue_contents;
        Alcotest.test_case "limits usable" `Quick test_catalogue_limits_usable;
        Alcotest.test_case "E3 single-thread" `Quick test_high_frequency_single_thread;
      ] );
    ( "core.cost_model",
      [
        Alcotest.test_case "density 88 vs 256" `Quick test_density_matches_paper;
        Alcotest.test_case "TDP per vCPU" `Quick test_tdp_matches_paper;
        Alcotest.test_case "price ratio" `Quick test_price;
      ] );
    ( "core.comparison",
      [
        Alcotest.test_case "derivations" `Quick test_comparison_derivations;
        Alcotest.test_case "rows shape" `Quick test_comparison_rows_shape;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "table rendering" `Quick test_report_table_rendering;
        Alcotest.test_case "formatters" `Quick test_report_formatters;
      ] );
    ( "core.experiments",
      [
        Alcotest.test_case "registry complete" `Quick test_registry_complete;
        Alcotest.test_case "cheap experiments run" `Quick test_cheap_experiments_run;
        Alcotest.test_case "fig7 bands" `Quick test_fig7_outcome_bands;
        Alcotest.test_case "sec6 ASIC improves" `Quick test_sec6_asic_improves;
        Alcotest.test_case "determinism" `Quick test_determinism_of_experiments;
      ] );
    ( "core.parallel",
      [
        Alcotest.test_case "map matches sequential" `Quick test_parallel_map_matches_sequential;
        Alcotest.test_case "empty and small inputs" `Quick test_parallel_map_empty_and_small;
        Alcotest.test_case "exception propagation" `Quick test_parallel_map_propagates_exception;
        Alcotest.test_case "default jobs" `Quick test_parallel_default_jobs_positive;
        Alcotest.test_case "sweep jobs-invariant" `Quick test_run_many_jobs_invariant;
        Alcotest.test_case "unknown id surfaces" `Quick test_run_many_unknown_id;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Overload acceptance: the hockey stick *)

(* Bounded admission holds goodput at the ceiling with flat latency
   under 4x offered load; blocking admission lets latency diverge. Run
   the workload drivers directly so the assertion is numeric, not a
   string comparison on the report. *)
let overload_net ~policy =
  let open Bm_cloud in
  let tb = Bm_workload.Testbed.make ~seed:2020 () in
  let limits = Limits.cloud_net ~policy () in
  let _, src, dst = Bm_workload.Testbed.bm_pair ~net_limits:limits tb in
  Bm_workload.Overload.udp_flood tb.Bm_workload.Testbed.sim ~src ~dst ~offered_pps:16e6
    ~duration:(Bm_engine.Simtime.ms 10.0) ()

let test_overload_net_hockey_stick () =
  let bounded = overload_net ~policy:Bm_cloud.Limits.Shed in
  let blocking = overload_net ~policy:Bm_cloud.Limits.Block in
  let open Bm_workload in
  (* Goodput at the ceiling: within the burst allowance of 4M PPS. *)
  check_bool "bounded goodput near ceiling" true
    (bounded.Overload.goodput_pps >= 4e6 *. 0.9 && bounded.Overload.goodput_pps <= 4e6 *. 1.35);
  check_bool "bounded sheds the excess" true (bounded.Overload.shed > 0);
  check_bool "bounded latency flat" true (bounded.Overload.p99_us < 2_000.0);
  check_bool "blocking latency diverges" true
    (blocking.Overload.p99_us > 4.0 *. bounded.Overload.p99_us);
  check_bool "blocking falls behind schedule" true (blocking.Overload.max_lag_ms > 1.0)

let overload_blk ~policy =
  let open Bm_cloud in
  let tb = Bm_workload.Testbed.make ~seed:2020 () in
  let blk_limits = Limits.cloud_blk ~policy () in
  let _, inst = Bm_workload.Testbed.bm_guest ~blk_limits tb in
  Bm_workload.Overload.blk_flood tb.Bm_workload.Testbed.sim ~inst ~offered_iops:100e3
    ~duration:(Bm_engine.Simtime.ms 40.0) ()

let test_overload_blk_hockey_stick () =
  let bounded = overload_blk ~policy:Bm_cloud.Limits.Shed in
  let blocking = overload_blk ~policy:Bm_cloud.Limits.Block in
  let open Bm_workload in
  check_bool "bounded goodput near ceiling" true
    (bounded.Overload.goodput_iops >= 25e3 *. 0.9 && bounded.Overload.goodput_iops <= 25e3 *. 1.35);
  check_bool "bounded rejects the excess" true (bounded.Overload.rejected > 0);
  check_bool "bounded latency flat" true (bounded.Overload.blk_p99_us < 2_000.0);
  check_bool "blocking latency diverges" true
    (blocking.Overload.blk_p99_us > 10.0 *. bounded.Overload.blk_p99_us)

let overload_suites =
  [
    ( "core.overload",
      [
        Alcotest.test_case "net hockey stick" `Quick test_overload_net_hockey_stick;
        Alcotest.test_case "blk hockey stick" `Quick test_overload_blk_hockey_stick;
      ] );
  ]

let suites = suites @ overload_suites
