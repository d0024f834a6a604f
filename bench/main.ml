(* Benchmark harness: regenerates every table and figure of the paper.
   Same run flags as [bmhive run] (see [main.exe --help]), plus [--list]
   and [--bechamel], and a wall-clock footer after the run. *)

open Cmdliner

(* One bechamel Test.make per table/figure: measures the wall-clock cost
   of the (quick-scale) experiment regeneration itself, so regressions in
   simulator performance show up as bench regressions. *)
let bechamel_suite seed =
  let open Bechamel in
  let ctx = { Bmhive.Experiments.default_ctx with quick = true; seed } in
  let tests =
    List.map
      (fun spec ->
        Test.make ~name:spec.Bmhive.Experiments.id
          (Staged.stage (fun () -> ignore (spec.Bmhive.Experiments.run ctx))))
      Bmhive.Experiments.all
  in
  Test.make_grouped ~name:"experiments" tests

let run_bechamel seed =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_suite seed) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun label ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "%-36s %12.3f ms/run\n" label (est /. 1e6)
      | Some [] | None -> Printf.printf "%-36s (no estimate)\n" label)
    results

let main (flags : Run_flags.t) list bechamel =
  let ctx = flags.ctx in
  if list then begin
    List.iter
      (fun s ->
        Printf.printf "%-10s %-10s %s\n" s.Bmhive.Experiments.id s.Bmhive.Experiments.paper_ref
          s.Bmhive.Experiments.title)
      Bmhive.Experiments.all;
    `Ok ()
  end
  else if bechamel then `Ok (run_bechamel ctx.seed)
  else begin
    let t0 = Unix.gettimeofday () in
    match Run_flags.run flags with
    | `Ok () ->
      Printf.printf "\n%d experiment(s) in %.1fs (%s scale, seed %d)\n" (List.length flags.ids)
        (Unix.gettimeofday () -. t0)
        (if ctx.quick then "quick" else "full")
        ctx.seed;
      `Ok ()
    | err -> err
  end

let () =
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List the experiment ids and exit.") in
  let bechamel =
    Arg.(
      value & flag
      & info [ "bechamel" ] ~doc:"Bechamel micro-benchmarks of the (quick-scale) experiment runs.")
  in
  let info = Cmd.info "main.exe" ~doc:"Regenerate the paper's tables and figures." in
  exit (Cmd.eval (Cmd.v info Term.(ret (const main $ Run_flags.term $ list $ bechamel))))
