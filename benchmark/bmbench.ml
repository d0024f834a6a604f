(* bmbench: the repository benchmark. It runs the five workloads of
   workloads.ml, prints every metric with its unit, checks the simulated
   outputs, and compares two passes.

   Usage:
     bmbench.exe --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1]
                 [--quick] [--detail FILE]
         One workload in this process. Cycles of reps repeat until S
         seconds have passed, at least three times, or exactly R times;
         each cycle has its own input seed derived from N, and each rep
         builds fresh simulators from it. The last line of stdout is one
         JSON object: end-to-end metrics with --trace 0, per-layer
         metrics with --trace 1.
     bmbench.exe [--seed N] [--runs N] [--seconds S | --reps R] [--quick] [--traced]
                 [--out FILE] [W ...]
         A pass: N runs (default 10, seeds N, N+1, ...) of each workload
         (default: all five), each run in a fresh child process, one at
         a time, so peak RSS belongs to one run. Runs last S seconds
         (default 20) or R reps. Writes the pass to FILE (default
         _bmbench/pass.json).
     bmbench.exe compare BASE.json NEW.json [--spec BENCHMARK.json]
         One verdict per (metric, workload) from the bounds in the
         spec; exits 1 on any worse or any changed simulated output.

   Exit codes: 0 ok, 1 an output check or a comparison failed, 2 bad
   usage. *)

open Bm_engine

let default_out = "_bmbench/pass.json"

(* --- statistics ------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4), the default "exclusive"
   method, so quartiles here match the ones the spread rule uses. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else 0.0 in
    (v, v)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* --- machine facts ---------------------------------------------------- *)

let nproc () = Domain.recommended_domain_count ()

(* High-water resident set of this process, from the kernel. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:"VmHWM:" line then
               Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Option.some
             else None)
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> kb /. 1024.0
  | None -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_file path contents =
  ensure_parent_dir path;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* --- one workload in this process ------------------------------------- *)

type kind = Untraced | Traced | Unsharded  (** untraced at shards = 1 *)

type rep = {
  kind : kind;
  index : int;
  cycle : int;  (** reps of one cycle share an input seed *)
  ctx : Workloads.ctx;
  res : Workloads.result;
  calibration : float;  (** seconds the reference job took just before this rep *)
}

(* The input seed of cycle [c]: the run's seed for cycle 0, then one
   derived seed per cycle. A rep's work depends on its input (a game
   day's on which hosts fail and whether a policy drains them), so a
   run's median covers many inputs of the seed's family, and a metric's
   spread across seeds stays small. *)
let input_seed seed c = if c = 0 then seed else Hashtbl.hash (seed, c)

let run_rep (w : Workloads.workload) ~seed ~quick ~spans ~index ~cycle kind =
  (* Every rep starts after a full major collection, so reps differ only
     in the work they do. *)
  Gc.compact ();
  let calibration = Calibrate.measure () in
  let traced = kind = Traced in
  Span.start_rep spans ~rep:index ~traced;
  let ctx =
    {
      Workloads.seed = input_seed seed cycle;
      quick;
      shards = (if kind = Unsharded then 1 else w.Workloads.shards);
      metrics = (if traced then Some (Metrics.create ()) else None);
      trace = (if traced then Some (Trace.create ()) else None);
      spans;
      setup_s = 0.0;
      wall_s = 0.0;
      events = 0;
      lane_events = 0;
      alloc_words = 0.0;
      minor_gcs = 0;
      major_gcs = 0;
    }
  in
  let res, _ = Span.record spans "bench.rep" (fun () -> w.Workloads.run ctx) in
  { kind; index; cycle; ctx; res; calibration }

(* The factor that scales a run's host times to the reference host
   speed. One job time is noisier than the drift it corrects, so the
   median over the run, plus one more after the last rep, sets a single
   factor for every rep. *)
let host_scale reps =
  Gc.compact ();
  Calibrate.reference_s /. median (Calibrate.measure () :: List.map (fun r -> r.calibration) reps)

(* Host-side values of one rep, by name, host times scaled. *)
let host_values ~scale spans r =
  let c = r.ctx in
  let f = float_of_int in
  let host t = t *. scale in
  let spans_total =
    List.filter_map
      (fun (s : Span.span) -> if s.Span.rep = r.index then Some s.Span.name else None)
      (Span.spans spans)
    |> List.sort_uniq compare
    |> List.map (fun name -> (name ^ "_host_s", host (Span.total spans ~rep:r.index name)))
  in
  let self = Span.self_times spans ~rep:r.index in
  [
    ("wall_s", host c.Workloads.wall_s);
    ("setup_s", host c.Workloads.setup_s);
    ("raw_wall_s", c.Workloads.wall_s);
    ("engine.events", f c.Workloads.events);
    ( "engine.lane_frac",
      if c.Workloads.lane_events < 0 then 0.0 else f c.Workloads.lane_events /. f (max 1 c.Workloads.events) );
    ("engine.events_per_host_s", f c.Workloads.events /. host c.Workloads.wall_s);
    ("engine.alloc_words_per_event", c.Workloads.alloc_words /. f (max 1 c.Workloads.events));
    ("engine.minor_gcs", f c.Workloads.minor_gcs);
    ("engine.major_gcs", f c.Workloads.major_gcs);
    ("bench.self_host_s", host (Option.value (List.assoc_opt "bench.rep" self) ~default:0.0));
  ]
  @ spans_total

(* Output checks over every rep: each workload's own checks; its claims,
   summed over the run's input seeds; and simulated outputs that repeat
   exactly for a repeated input seed, between traced and untraced reps,
   and between shard counts. The first rep of a cycle is the reference
   for the others. *)
let checks reps =
  let first_of c = List.find (fun r -> r.cycle = c) reps in
  let firsts = List.filter (fun r -> r == first_of r.cycle) reps in
  let same kind =
    List.for_all
      (fun r -> r.kind <> kind || r == first_of r.cycle || r.res.Workloads.sim = (first_of r.cycle).res.Workloads.sim)
      reps
  in
  let claims =
    List.map
      (fun (name, _, _) ->
        let mine = List.concat_map (fun r -> List.filter (fun (n, _, _) -> n = name) r.res.Workloads.claims) firsts in
        let sum side = List.fold_left (fun acc c -> acc +. side c) 0.0 mine in
        (name, sum (fun (_, a, _) -> a) >= sum (fun (_, _, b) -> b)))
      (List.hd reps).res.Workloads.claims
  in
  let own =
    List.concat_map (fun r -> r.res.Workloads.checks) reps
    |> List.fold_left
         (fun acc (name, ok) ->
           match List.assoc_opt name acc with
           | Some prev -> (name, prev && ok) :: List.remove_assoc name acc
           | None -> (name, ok) :: acc)
         []
    |> List.rev
  in
  own @ claims
  @ [ ("simulated outputs repeat for a repeated input seed", same Untraced) ]
  @ (if List.exists (fun r -> r.kind = Traced) reps then
       [ ("traced rep matches untraced (observation purity)", same Traced) ]
     else [])
  @
  if List.exists (fun r -> r.kind = Unsharded) reps then [ ("shards 1 matches the sharded run", same Unsharded) ]
  else []

let end_to_end = [ ("wall_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

(* A metric over several values: reps of a run, or runs of a pass. *)
let stat (name, unit, values) =
  let q1, q3 = quartiles values in
  ( name,
    Json.Obj
      [
        ("unit", Json.Str unit);
        ("median", Json.Num (median values));
        ("q1", Json.Num q1);
        ("q3", Json.Num q3);
        ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ] )

let metric_obj (name, unit, value) =
  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

let run_workload (w : Workloads.workload) ~seed ~quick ~seconds ~reps ~traced ~detail =
  let spans = Span.create () in
  let cycle =
    if not traced then [ Untraced ]
    else if w.Workloads.shards > 1 then [ Untraced; Traced; Unsharded ]
    else [ Untraced; Traced ]
  in
  let t0 = Unix.gettimeofday () in
  let enough cycles =
    match reps with
    | Some r -> cycles >= r
    | None -> cycles >= (if traced then 1 else 3) && Unix.gettimeofday () -. t0 >= seconds
  in
  (* Peak RSS is read after the first rep: later reps only add heap
     fragmentation, which grows with the number of reps a run fits. *)
  let rss = ref 0.0 in
  (* Cycle 0 ends with a second untraced rep on the same input seed: the
     determinism check. *)
  let rec loop cycles acc =
    if enough cycles then List.rev acc
    else
      let kinds = if cycles = 0 then cycle @ [ Untraced ] else cycle in
      let acc =
        List.fold_left
          (fun acc kind ->
            let r = run_rep w ~seed ~quick ~spans ~index:(List.length acc) ~cycle:cycles kind in
            if r.index = 0 then rss := peak_rss_mb ();
            r :: acc)
          acc kinds
      in
      loop (cycles + 1) acc
  in
  let all = loop 0 [] in
  let scale = host_scale all in
  let values_of name reps = List.map (fun r -> List.assoc name (host_values ~scale spans r)) reps in
  let median_of reps name = median (values_of name reps) in
  let rss = !rss in
  let of_kind k = List.filter (fun r -> r.kind = k) all in
  let untraced = of_kind Untraced in
  let checks = checks all in
  let correct = List.for_all snd checks in
  let attempted = List.fold_left (fun acc r -> acc + r.res.Workloads.attempted) 0 all in
  let failed =
    if correct then List.fold_left (fun acc r -> acc + r.res.Workloads.failed) 0 all else attempted
  in
  (* Outputs and per-layer counts come from cycle 0, whose input seed is
     the run's own. A traced run reports its traced rep, so a pass file
     shows the observation-purity check's other side. *)
  let first = List.hd all in
  let reported = if traced then List.hd (of_kind Traced) else first in
  let e2e =
    List.map
      (fun (name, unit) ->
        let values = if name = "peak_rss_mb" then [ rss ] else values_of name untraced in
        (name, unit, values))
      end_to_end
  in
  let layers =
    match of_kind Traced with
    | [] -> []
    | traced_reps ->
      let t = List.hd traced_reps in
      let host name =
        match name with
        | "obs.traced_wall_ratio" -> median_of traced_reps "wall_s" /. median_of untraced "wall_s"
        | "engine.shard_speedup" -> (
          match of_kind Unsharded with
          | [] -> 0.0
          | unsharded ->
            median_of unsharded "hyp.fleet_serve_host_s" /. median_of untraced "hyp.fleet_serve_host_s")
        | name when String.ends_with ~suffix:"_host_s" name -> (
          try median_of untraced name with Not_found -> 0.0)
        | name -> Option.value (List.assoc_opt name (host_values ~scale spans first)) ~default:0.0
      in
      Layers.compute
        {
          Layers.ops = float_of_int t.res.Workloads.attempted;
          failed = float_of_int t.res.Workloads.failed;
          sim = t.res.Workloads.sim;
          registry = Option.get t.ctx.Workloads.metrics;
          trace = Option.get t.ctx.Workloads.trace;
          host;
        }
  in
  (* Human-readable report. *)
  Printf.printf "bmbench %s: seed %d, %d rep(s) (%d untraced), shards %d, nproc %d%s\n" w.Workloads.name seed
    (List.length all) (List.length untraced) w.Workloads.shards (nproc ())
    (if quick then ", quick" else "");
  List.iter (fun (name, ok) -> Printf.printf "  check %-4s %s\n" (if ok then "ok" else "FAIL") name) checks;
  Printf.printf "  host times scaled by %.4f to the reference speed; unscaled wall_s %.6g s\n" scale
    (median_of untraced "raw_wall_s");
  List.iter
    (fun (name, unit, values) ->
      let q1, q3 = quartiles values in
      Printf.printf "  %-34s %14.6g %-8s (median of %d; q1 %.6g, q3 %.6g)\n" name (median values) unit
        (List.length values) q1 q3)
    e2e;
  List.iter (fun (name, value) -> Printf.printf "  %-34s %14.6g (simulated)\n" name value) reported.res.Workloads.sim;
  List.iter (fun (name, unit, value) -> Printf.printf "  %-34s %14.6g %s\n" name value unit) layers;
  if traced then begin
    let file = Printf.sprintf "_bmbench/%s.spans.json" w.Workloads.name in
    write_file file (Span.export_json spans);
    Printf.printf "  spans: %s\n" file
  end;
  (match detail with
  | None -> ()
  | Some file ->
    write_file file
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.Str w.Workloads.name);
              ("seed", Json.Num (float_of_int seed));
              ("quick", Json.Bool quick);
              ("reps", Json.Num (float_of_int (List.length untraced)));
              ("shards", Json.Num (float_of_int w.Workloads.shards));
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (float_of_int attempted));
              ("failed", Json.Num (float_of_int failed));
              ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks));
              ("sim", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) reported.res.Workloads.sim));
              ("metrics", Json.Obj (List.map stat e2e));
              ("layers", Json.Obj (List.map metric_obj layers));
            ])));
  let metrics =
    if traced then List.map metric_obj layers
    else List.map (fun (name, unit, values) -> metric_obj (name, unit, median values)) e2e
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1

(* --- a pass: every workload in child processes ------------------------- *)

(* One run of one workload in a fresh child process, so that peak RSS
   belongs to that run alone. Returns the child's detail and whether it
   exited cleanly. *)
let run_child ~detail args =
  let exe = Sys.executable_name in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list ((exe :: args) @ [ "--detail"; detail ])) Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  let ok = match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false in
  let d = try Some (Json.of_file detail) with Sys_error _ | Json.Parse_error _ -> None in
  if Sys.file_exists detail then Sys.remove detail;
  (ok, d)

(* [runs] runs of each workload, one at a time, with seeds [seed],
   [seed + 1], ...: the same set on every commit, so two passes compare
   run by run. Each end-to-end metric of a workload summarises the
   medians of its runs. *)
let run_pass names ~seed ~runs ~quick ~seconds ~reps ~traced ~out =
  ensure_parent_dir out;
  let per_run =
    match reps with Some r -> [ "--reps"; string_of_int r ] | None -> [ "--seconds"; string_of_int seconds ]
  in
  let workloads =
    List.map
      (fun name ->
        let details =
          List.init runs (fun i ->
              let run_seed = seed + i in
              let ok, d =
                run_child ~detail:(out ^ ".run")
                  ([ "--workload"; name; "--seed"; string_of_int run_seed; "--trace"; (if traced then "1" else "0") ]
                  @ per_run
                  @ if quick then [ "--quick" ] else [])
              in
              let line =
                match d with
                | None -> "no result"
                | Some d ->
                  String.concat "  "
                    (List.map
                       (fun (m, unit) ->
                         Printf.sprintf "%s %.6g %s" m (Json.to_num (Json.get "median" (Json.get m (Json.get "metrics" d)))) unit)
                       end_to_end)
              in
              Printf.printf "%-12s seed %-6d %s%s\n%!" name run_seed line (if ok then "" else "  FAILED");
              (ok, d))
        in
        let results = List.filter_map snd details in
        let correct = List.for_all fst details && List.length results = runs in
        let summary (m, unit) =
          stat (m, unit, List.map (fun d -> Json.to_num (Json.get "median" (Json.get m (Json.get "metrics" d)))) results)
        in
        ( name,
          Json.Obj
            [
              ("correct", Json.Bool correct);
              ("metrics", Json.Obj (List.map summary end_to_end));
              ("runs", Json.Arr results);
            ] ))
      names
  in
  write_file out
    (Json.to_string
       (Json.Obj
          [
            ( "machine",
              Json.Obj [ ("nproc", Json.Num (float_of_int (nproc ()))); ("ocaml", Json.Str Sys.ocaml_version) ]
            );
            ("seed", Json.Num (float_of_int seed));
            ("runs", Json.Num (float_of_int runs));
            ("per_run", Json.Str (String.concat " " per_run));
            ("quick", Json.Bool quick);
            ("traced", Json.Bool traced);
            ("workloads", Json.Obj workloads);
          ]));
  Printf.printf "bmbench: pass written to %s\n" out;
  if not (List.for_all (fun (_, w) -> Json.to_bool (Json.get "correct" w)) workloads) then exit 1

(* --- compare two passes ----------------------------------------------- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function Better -> "better" | Same -> "same" | Worse -> "worse" | Unresolved -> "unresolved"

(* [worse] is the relative worsening of the median. A difference counts
   only when it exceeds the bound; a spread wider than the bound leaves
   the metric unresolved unless every run of one side beats every run of
   the other. *)
let judge ~lower ~bound base next =
  let med_b = median base and med_n = median next in
  let spread xs =
    let q1, q3 = quartiles xs in
    let m = median xs in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  in
  let beats a b = if lower then a < b else a > b in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (fun y -> beats x y) ys) xs in
  let worse = if med_b = 0.0 then 0.0 else (if lower then med_n -. med_b else med_b -. med_n) /. Float.abs med_b in
  if all_beat next base && worse < -.bound then Better
  else if all_beat base next && worse > bound then Worse
  else if Float.max (spread base) (spread next) > bound then Unresolved
  else if worse > bound then Worse
  else if worse < -.bound then Better
  else Same

(* Runs pair up by seed; paired runs must agree on every simulated
   output and every check. *)
let same_outputs base next =
  let runs w = Json.to_list (Json.get "runs" w) in
  let key d = Json.to_num (Json.get "seed" d) in
  let b = runs base and n = runs next in
  List.length b = List.length n
  && List.for_all2
       (fun db dn -> key db = key dn && Json.get "sim" db = Json.get "sim" dn && Json.get "checks" db = Json.get "checks" dn)
       b n

let compare_passes ~spec base_file next_file =
  let spec = Json.of_file spec and base = Json.of_file base_file and next = Json.of_file next_file in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.get "name" m),
          Json.to_str (Json.get "better" m) = "lower",
          Json.to_num (Json.get "bound" m) ))
      (Json.to_list (Json.get "end_to_end" spec))
  in
  let workloads p = Json.to_obj (Json.get "workloads" p) in
  let bad = ref 0 in
  Printf.printf "%-14s %-14s %12s %12s %9s  %s\n" "workload" "metric" "base" "new" "change" "verdict";
  List.iter
    (fun (wname, nw) ->
      match List.assoc_opt wname (workloads base) with
      | None -> Printf.printf "%-14s (not in %s)\n" wname base_file
      | Some bw ->
        List.iter
          (fun (mname, lower, bound) ->
            let values w =
              List.map Json.to_num (Json.to_list (Json.get "values" (Json.get mname (Json.get "metrics" w))))
            in
            let b = values bw and n = values nw in
            let v = judge ~lower ~bound b n in
            if v = Worse then incr bad;
            Printf.printf "%-14s %-14s %12.6g %12.6g %+8.1f%%  %s\n" wname mname (median b) (median n)
              (100.0 *. (median n -. median b) /. median b)
              (verdict_name v))
          metrics;
        let same = same_outputs bw nw in
        if not same then incr bad;
        Printf.printf "%-14s %-14s %s\n" wname "simulated" (if same then "identical" else "CHANGED"))
    (workloads next);
  if !bad > 0 then exit 1

(* --- command line ----------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bmbench.exe --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1] [--quick] \
     [--detail FILE]\n\
    \       bmbench.exe [--seed N] [--runs N] [--seconds S | --reps R] [--quick] [--traced] [--out FILE] \
     [W ...]\n\
    \       bmbench.exe compare BASE.json NEW.json [--spec BENCHMARK.json]";
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ ->
    Printf.eprintf "%s expects a non-negative integer, got %S\n" flag v;
    usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest ->
    let rec parse spec files = function
      | [] -> (spec, List.rev files)
      | "--spec" :: f :: rest -> parse f files rest
      | f :: rest when not (String.starts_with ~prefix:"-" f) -> parse spec (f :: files) rest
      | _ -> usage ()
    in
    (match parse "BENCHMARK.json" [] rest with
    | spec, [ base; next ] -> (
      try compare_passes ~spec base next with
      | Json.Parse_error e | Sys_error e ->
        Printf.eprintf "bmbench compare: %s\n" e;
        exit 2)
    | _ -> usage ())
  | args ->
    let workload = ref None and seed = ref 2020 and seconds = ref 20 and reps = ref None and runs = ref 10 in
    let trace = ref false and quick = ref false and detail = ref None in
    let out = ref default_out and names = ref [] in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: rest -> workload := Some v; parse rest
      | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
      | "--seconds" :: v :: rest -> seconds := int_arg "--seconds" v; parse rest
      | "--runs" :: v :: rest -> runs := max 1 (int_arg "--runs" v); parse rest
      | "--reps" :: v :: rest -> reps := Some (max 1 (int_arg "--reps" v)); parse rest
      | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
      | "--traced" :: rest -> trace := true; parse rest
      | "--quick" :: rest -> quick := true; parse rest
      | "--detail" :: f :: rest -> detail := Some f; parse rest
      | "--out" :: f :: rest -> out := f; parse rest
      | w :: rest when not (String.starts_with ~prefix:"-" w) -> names := w :: !names; parse rest
      | a :: _ ->
        Printf.eprintf "unknown or incomplete argument %S\n" a;
        usage ()
    in
    parse args;
    let find name =
      match Workloads.find name with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
    in
    (match !workload with
    | Some name ->
      run_workload (find name) ~seed:!seed ~quick:!quick ~seconds:(float_of_int !seconds) ~reps:!reps ~traced:!trace
        ~detail:!detail
    | None ->
      let names = if !names = [] then List.map (fun w -> w.Workloads.name) Workloads.all else List.rev !names in
      List.iter (fun n -> ignore (find n)) names;
      run_pass names ~seed:!seed ~runs:!runs ~quick:!quick ~seconds:!seconds ~reps:!reps ~traced:!trace ~out:!out)
