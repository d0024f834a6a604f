(* What the host-cost benchmarks (engine_bench, fabric_bench,
   scenario_bench) share: their command line, wall-clock timing,
   progress lines on stderr and the allocation probe. *)

type args = { name : string; quick : bool; seed : int; out_file : string }

(* [name.exe [--quick] [--seed N] [--out FILE]]; [--seed] defaults to
   2020 and [--out] to [default_out]. A bad command line prints the
   problem and the usage line and exits with status 2. *)
let parse_args ~name ~default_out =
  let fail msg =
    prerr_endline msg;
    Printf.eprintf "usage: %s.exe [--quick] [--seed N] [--out FILE]\n" name;
    exit 2
  in
  let rec parse a = function
    | [] -> a
    | "--quick" :: rest -> parse { a with quick = true } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> parse { a with seed } rest
      | None -> fail "--seed expects an integer")
    | "--out" :: f :: rest -> parse { a with out_file = f } rest
    | [ (("--seed" | "--out") as flag) ] -> fail (flag ^ " expects a value")
    | a :: _ -> fail (Printf.sprintf "unknown argument %S" a)
  in
  parse
    { name; quick = false; seed = 2020; out_file = default_out }
    (List.tl (Array.to_list Sys.argv))

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let progress args fmt = Printf.ksprintf (fun m -> prerr_endline ("[" ^ args.name ^ "] " ^ m)) fmt

(* Cumulative words allocated by this domain so far: the minor counter
   plus direct major allocations, net of promotions (which would double
   count). [Gc.minor_words ()] counts up to the allocation pointer;
   [Gc.quick_stat]'s [minor_words] stops at the last minor collection
   on OCaml 5, so a bracket with no collection inside would read 0. *)
let allocated_words () =
  let st = Gc.quick_stat () in
  Gc.minor_words () +. st.Gc.major_words -. st.Gc.promoted_words
