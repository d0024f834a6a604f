(* bmhive — command-line front end for the BM-Hive reproduction.

   Subcommands:
     list                      experiment registry
     run [flags] <id>...       regenerate tables/figures (flags: run --help)
     catalogue                 Table 3 instance families
     demo                      provision + boot + a little traffic
*)

open Cmdliner

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-10s %-9s %s\n" s.Bmhive.Experiments.id s.Bmhive.Experiments.paper_ref
          s.Bmhive.Experiments.title)
      Bmhive.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible experiment (one per table/figure).")
    Term.(const run $ const ())

(* --- run ------------------------------------------------------------ *)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate the paper's tables and figures from the simulation.")
    Term.(ret (const Run_flags.run $ Run_flags.term))

(* --- catalogue ------------------------------------------------------ *)

let catalogue_cmd =
  let run () =
    List.iter
      (fun i -> Format.printf "%a@." Bmhive.Instances.pp i)
      Bmhive.Instances.catalogue
  in
  Cmd.v (Cmd.info "catalogue" ~doc:"Print the bare-metal instance catalogue (Table 3).")
    Term.(const run $ const ())

(* --- demo ----------------------------------------------------------- *)

let demo_cmd =
  let run seed =
    let open Bm_engine in
    let open Bm_workload in
    let tb = Testbed.make ~seed () in
    let server = Testbed.bm_server tb in
    (match Bm_hyp.Bm_hypervisor.provision server ~name:"demo" () with
    | Error e -> `Error (false, e)
    | Ok guest ->
      Sim.spawn tb.Testbed.sim (fun () ->
          match Bm_guest.Boot.run guest ~image:Bm_cloud.Image.centos7 () with
          | Error e -> failwith e
          | Ok t ->
            Printf.printf "booted %s on a compute board in %s\n"
              Bm_cloud.Image.centos7.Bm_cloud.Image.name
              (Simtime.to_string t.Bm_guest.Boot.total_ns);
            let lat = ref 0.0 in
            for _ = 1 to 100 do
              lat := !lat +. guest.Bm_guest.Instance.blk ~op:`Read ~bytes_:4096
            done;
            Printf.printf "cloud storage: %.0fus avg over 100 reads\n" (!lat /. 100.0 /. 1e3));
      Testbed.run tb;
      print_endline "demo done.";
      `Ok ())
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Provision a bm-guest, boot it, and run a little I/O.")
    Term.(ret (const run $ Run_flags.seed))

let () =
  let doc = "BM-Hive (ASPLOS '20) reproduction: high-density multi-tenant bare-metal cloud" in
  let info = Cmd.info "bmhive" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; catalogue_cmd; demo_cmd ]))
