(* Determinism matrix, run by `dune build @determinism` (not by runtest).

   Every row runs main.exe once per variant and requires byte-identical
   stdout across the variants (the wall-clock footer aside): the same
   seed twice, or --jobs 1 against 4. Rows can also require or
   forbid substrings, compare against a committed scorecard in
   GOLDEN_DIR, and save their output as a scorecard into $SCORECARD_DIR
   (default: the build directory).

   usage: determinism.exe MAIN_EXE GOLDEN_DIR OUT_DIR *)

type row = {
  args : string list;  (** flags and experiment ids, shared by every variant *)
  variants : string list list;  (** extra flags of each run *)
  has : string list;
  lacks : string list;
  golden : string option;  (** committed scorecard under GOLDEN_DIR the output must equal *)
  save : string option;  (** scorecard file name under OUT_DIR *)
}

let row ?(has = []) ?(lacks = []) ?golden ?save variants args =
  { args = String.split_on_char ' ' args; variants; has; lacks; golden; save }

let twice = [ []; [] ]
let across flag = [ [ flag; "1" ]; [ flag; "4" ] ]
let vf_ids = "vf_scale vf_reassign vf_ablation"

let matrix =
  [
    row [ [] ] "--quick" ~golden:"QUICK_scorecard.txt" ~save:"QUICK_scorecard.txt";
    row twice "--quick --metrics --faults 7:default availability evacuation";
    row twice "--quick --metrics overload";
    row (across "--jobs") "--quick --faults 7:default overload" ~has:[ "+faults" ];
    row twice "--quick xhost_rr xhost_stream xhost_migrate";
    row (across "--jobs") "--quick --topology hosts=4,tors=2,spines=2 xhost_rr xhost_stream xhost_migrate";
    row (across "--jobs") "--quick fig9 fig10 fig11 sec6";
    row (twice @ across "--jobs") "--quick fig12 fig13 fig14 fig15 fig16";
    row twice "fleet_scale" ~has:[ "12000 placed + 0 stranded" ] ~lacks:[ "DIFF" ]
      ~save:"FLEET_scorecard.txt";
    row (across "--jobs") "--quick --hosts 40 --guests 800 --tenants 8 fleet_scale";
    row twice
      "--quick --hosts 8 --guests 400 --tenants 4 --topology \
       hosts=8,tors=4,spines=1,host_gbit=10,spine_gbit=1,queue=2 fleet_scale";
    row (twice @ across "--jobs") "--quick --scenario 42:default game_day"
      ~has:[ "degradation helps" ] ~lacks:[ "DIFF" ] ~save:"GAMEDAY_scorecard.txt";
    row (across "--jobs") "--quick --scenario 7:hosts=2,links=1,congest=1,evac=1,brownout=1 game_day";
    row twice "--quick --scenario 42:default policy_race" ~lacks:[ "DIFF" ]
      ~save:"POLICY_quick_scorecard.txt";
    row [ [] ] "policy_race" ~golden:"POLICY_scorecard.txt" ~save:"POLICY_scorecard.txt";
    row (across "--jobs") "--quick --policy congestion game_day policy_race";
    row twice ("--quick " ^ vf_ids) ~lacks:[ "DIFF" ];
    row (across "--jobs") "--quick vf_scale";
    row (across "--jobs") "--quick vf_ablation";
    row (across "--jobs") ("--quick --vfs 4 " ^ vf_ids);
    row (twice @ across "--jobs") "--quick --faults 7:default vf_ablation vf_reassign availability";
    row [ [] ] "vf_ablation" ~golden:"VF_scorecard.txt" ~save:"VF_scorecard.txt";
  ]

let has s affix = Astring.String.is_infix ~affix s

(* The first line where two outputs part ways, for the failure report. *)
let first_diff a b =
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "line %d: %S vs %S" n x y
    | _ -> Printf.sprintf "line %d: one output ends" n
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    String.split_on_char '\n' out
    |> List.filter (fun l -> not (has l "experiment(s) in"))
    |> String.concat "\n"
  | _ -> failwith (String.concat " " (exe :: args) ^ ": non-zero exit")

let () =
  let exe, golden_dir, out_dir =
    match Sys.argv with [| _; e; g; d |] -> (e, g, d) | _ -> failwith "usage: see header"
  in
  let failures = ref 0 in
  List.iter
    (fun r ->
      let label = String.concat " " r.args in
      let before = !failures in
      let fail fmt =
        Printf.ksprintf (fun m -> incr failures; Printf.printf "FAIL %s: %s\n%!" label m) fmt
      in
      let outs = List.map (fun v -> (v, run exe (v @ r.args))) r.variants in
      let v0, first = List.hd outs in
      List.iter
        (fun (v, o) ->
          if o <> first then
            fail "[%s] vs [%s], %s" (String.concat " " v0) (String.concat " " v) (first_diff first o))
        outs;
      if first = "" then fail "empty output";
      List.iter (fun s -> if not (has first s) then fail "missing %S" s) r.has;
      List.iter (fun s -> if has first s then fail "unexpected %S" s) r.lacks;
      Option.iter
        (fun name ->
          let golden =
            In_channel.with_open_bin (Filename.concat golden_dir name) In_channel.input_all
          in
          if first <> golden then fail "%s, %s" name (first_diff golden first))
        r.golden;
      Option.iter
        (fun name ->
          Out_channel.with_open_bin (Filename.concat out_dir name) (fun oc ->
              output_string oc first))
        r.save;
      if !failures = before then Printf.printf "ok   %s (%d runs)\n%!" label (List.length outs))
    matrix;
  if !failures > 0 then exit 1
