(* Regression test for the benchmark, run by [dune runtest]: one quick
   untraced pass and one quick traced pass of every workload (the traced
   pass runs an untraced rep beside each traced one).

   Usage: test_bmbench.exe BMBENCH_EXE BENCHMARK_JSON

   Checks that each pass file parses and every workload in it is
   correct; that the end-to-end and per-layer metrics are exactly the
   ones BENCHMARK.json declares, each with its declared unit; that the
   two passes agree on every simulated output and on every check they
   share; and that [compare] accepts a pass against itself. *)

let exe =
  let p = Sys.argv.(1) in
  if Filename.is_implicit p then Filename.concat Filename.current_dir_name p else p
let spec = Json.of_file Sys.argv.(2)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("FAIL " ^ m))
    fmt

let run args =
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin
      (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0)
      Unix.stderr
  in
  match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1

let pass ?(traced = false) out =
  let code =
    run ([ "--quick"; "--runs"; "1"; "--reps"; "1"; "--out"; out ] @ if traced then [ "--traced" ] else [])
  in
  if code <> 0 then fail "%s: bmbench exited %d" out code;
  Json.to_obj (Json.get "workloads" (Json.of_file out))

(* The one run of a workload in a pass. *)
let run_of w = List.hd (Json.to_list (Json.get "runs" w))

let declared key =
  List.map
    (fun m -> (Json.to_str (Json.get "name" m), Json.to_str (Json.get "unit" m)))
    (Json.to_list (Json.get key spec))

(* [section] of every workload holds exactly the [declared] names, each
   with its unit. *)
let check_metrics ~file ~section ~declared workloads =
  List.iter
    (fun (w, d) ->
      let got = Json.to_obj (Json.get section (run_of d)) in
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name got with
          | None -> fail "%s: %s lacks %s metric %s" file w section name
          | Some m ->
            let u = Json.to_str (Json.get "unit" m) in
            if u <> unit then fail "%s: %s %s has unit %s, declared %s" file w name u unit)
        declared;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name declared) then fail "%s: %s reports undeclared %s" file w name)
        got)
    workloads

let same_outputs a t =
  List.iter
    (fun (w, wa) ->
      match List.assoc_opt w t with
      | None -> fail "traced pass lacks %s" w
      | Some wt ->
        let da = run_of wa and dt = run_of wt in
        if Json.get "sim" da <> Json.get "sim" dt then fail "%s: simulated outputs differ" w;
        let checks_t = Json.to_obj (Json.get "checks" dt) in
        List.iter
          (fun (name, ok) ->
            match List.assoc_opt name checks_t with
            | Some ok' when ok' <> ok -> fail "%s: check %S differs" w name
            | Some _ -> ()
            | None -> fail "%s: traced pass lacks check %S" w name)
          (Json.to_obj (Json.get "checks" da)))
    a

let () =
  let dir = "_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let a_file = Filename.concat dir "untraced.json" and t_file = Filename.concat dir "traced.json" in
  let a = pass a_file and t = pass ~traced:true t_file in
  List.iter
    (fun (file, ws) ->
      if List.length ws <> 5 then fail "%s: %d workloads, expected 5" file (List.length ws);
      List.iter
        (fun (w, d) -> if not (Json.to_bool (Json.get "correct" d)) then fail "%s: %s not correct" file w)
        ws)
    [ (a_file, a); (t_file, t) ];
  check_metrics ~file:a_file ~section:"metrics" ~declared:(declared "end_to_end") a;
  check_metrics ~file:t_file ~section:"layers" ~declared:(declared "per_layer") t;
  same_outputs a t;
  let code = run [ "compare"; a_file; a_file; "--spec"; Sys.argv.(2) ] in
  if code <> 0 then fail "compare of a pass with itself exited %d" code;
  if !failures > 0 then exit 1;
  print_endline "bmbench: quick passes consistent"
