(* Tests for the shared run-flag table: out-of-range values are usage
   errors naming their flag (one regression per value that used to crash
   a run), each flag sets exactly its own context field, and a QCheck
   fuzz over random command lines never raises. *)

open Cmdliner
module E = Bmhive.Experiments

let check_bool = Alcotest.(check bool)

(* Evaluate the shared term on [args]; [Error] carries what cmdliner
   printed. [~catch:false] lets any exception escape to the test. *)
let parse args =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let cmd = Cmd.v (Cmd.info "run") Run_flags.term in
  let r = Cmd.eval_value ~catch:false ~err ~help:err ~argv:(Array.of_list ("run" :: args)) cmd in
  Format.pp_print_flush err ();
  match r with
  | Ok (`Ok t) -> Ok t
  | Ok (`Help | `Version) -> Error "help requested"
  | Error _ -> Error (Buffer.contents buf)

(* Cmdliner reflows what it prints: a newline or space inside a quoted
   token can come out as a line break plus indent. So [msg] names [tok]
   when the quoted token appears in it modulo whitespace runs, each read
   as one space; every other character must match exactly. *)
let squeeze s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if not (Astring.Char.Ascii.is_white c) then Buffer.add_char b c
      else if i = 0 || not (Astring.Char.Ascii.is_white s.[i - 1]) then Buffer.add_char b ' ')
    s;
  Buffer.contents b

let mentions msg tok =
  Astring.String.is_infix ~affix:(squeeze (Printf.sprintf "'%s'" tok)) (squeeze msg)

let rejected ~flag args () =
  match parse args with
  | Ok _ -> Alcotest.failf "%s accepted" (String.concat " " args)
  | Error msg -> check_bool ("error names " ^ flag) true (mentions msg flag)

(* ------------------------------------------------------------------ *)
(* Each flag sets exactly its own field *)

let fields (t : Run_flags.t) =
  let c = t.ctx and opt f = Option.fold ~none:"-" ~some:f in
  [
    ("seed", string_of_int c.seed);
    ("quick", string_of_bool c.quick);
    ("trace", Printf.sprintf "%b %s" (c.trace <> None) (opt Fun.id t.trace_file));
    ("metrics", string_of_bool (c.metrics <> None));
    ("faults", opt Bm_engine.Fault.render_plan c.faults);
    ("topo", opt Bm_fabric.Topology.render c.topo);
    ("scenario", opt Bmhive.Scenario.render c.scenario);
    ("policy", opt Bm_cloud.Policy.name c.policy);
    ("hosts", opt string_of_int c.hosts);
    ("guests", opt string_of_int c.guests);
    ("tenants", opt string_of_int c.tenants);
    ("vfs", opt string_of_int c.vfs);
    ("datapath", opt Bm_iobond.Vf.datapath_name c.datapath);
    ("jobs", string_of_int c.jobs);
    ("ids", String.concat "," t.ids);
  ]

let one_flag_cases =
  [
    ([ "--seed"; "7" ], "seed");
    ([ "--quick" ], "quick");
    ([ "--trace"; "run.json" ], "trace");
    ([ "--metrics" ], "metrics");
    ([ "--faults"; "42:default" ], "faults");
    ([ "--topology"; "hosts=4,tors=2,spines=2" ], "topo");
    ([ "--scenario"; "42:default" ], "scenario");
    ([ "--policy"; "congestion" ], "policy");
    ([ "--hosts"; "40" ], "hosts");
    ([ "--guests"; "800" ], "guests");
    ([ "--tenants"; "8" ], "tenants");
    ([ "--vfs"; "4" ], "vfs");
    ([ "--datapath"; "vf" ], "datapath");
    ([ "--jobs"; "3" ], "jobs");
    ([ "fig9" ], "ids");
  ]

let ok = function Ok t -> t | Error e -> Alcotest.fail e

let test_defaults () =
  let expected =
    fields { Run_flags.ctx = E.default_ctx; ids = E.ids (); trace_file = None }
  in
  Alcotest.(check (list (pair string string))) "no flags = default_ctx" expected (fields (ok (parse [])))

let test_each_flag_sets_its_field () =
  let base = fields (ok (parse [])) in
  Alcotest.(check int) "a case per field" (List.length base) (List.length one_flag_cases);
  List.iter
    (fun (args, field) ->
      let changed =
        List.filter_map
          (fun ((name, v), (_, v0)) -> if v <> v0 then Some name else None)
          (List.combine (fields (ok (parse args))) base)
      in
      Alcotest.(check (list string)) (String.concat " " args) [ field ] changed)
    one_flag_cases

(* ------------------------------------------------------------------ *)
(* Fuzz: real flag names, junk or boundary values *)

let valued =
  [ "--seed"; "--trace"; "--policy"; "--hosts"; "--guests"; "--tenants"; "--vfs"; "--datapath";
    "--jobs"; "-j" ]

let boundaries = [ "-1"; "0"; "1"; "2"; "3"; "63"; "64"; "65" ]

let junk =
  [ ""; " "; "x"; "-"; "007"; "0x10"; "1_000"; "1e3"; "2.5"; "99999999999999999999";
    "-4611686018427387904"; "ladder"; "congestion"; "vf"; "vring"; "fig9"; "=" ]

let gen_args =
  let open QCheck.Gen in
  let word =
    frequency
      [ (4, oneofl boundaries); (2, oneofl junk); (1, string_size ~gen:printable (0 -- 6)) ]
  in
  let item =
    frequency
      [
        (6, map2 (fun f v -> [ f; v ]) (oneofl valued) word);
        (2, map2 (fun f v -> [ f ^ "=" ^ v ]) (oneofl valued) word);
        (1, oneofl [ [ "--quick" ]; [ "--metrics" ] ]);
        (1, map (fun f -> [ f ]) (oneofl valued));
      ]
  in
  map List.concat (list_size (0 -- 4) item)

(* The option name cmdliner reports for a dash-token. A value that itself
   starts with a dash (--hosts -3) reads as the short option -3, so the
   error names that token instead of --hosts. *)
let dash_name a =
  if String.length a < 2 || a.[0] <> '-' then None
  else if a.[1] = '-' then Some (List.hd (String.split_on_char '=' a))
  else Some (String.sub a 0 2)

(* Either a context whose values respect every consumer's bound, or an
   error naming one of the dash-tokens on the command line. *)
let prop_never_raises =
  QCheck.Test.make ~name:"flag term: context or flag-naming error, never an exception" ~count:1000
    (QCheck.make ~print:(String.concat " ") gen_args)
    (fun args ->
      match parse args with
      | Ok { ctx; _ } ->
        let within lo hi = Option.fold ~none:true ~some:(fun n -> n >= lo && n <= hi) in
        ctx.jobs >= 1
        && within 2 max_int ctx.hosts
        && within 1 max_int ctx.guests
        && within 1 max_int ctx.tenants
        && within 1 64 ctx.vfs
      | Error msg ->
        List.exists (fun a -> Option.fold (dash_name a) ~none:false ~some:(mentions msg)) args)

(* ------------------------------------------------------------------ *)
(* The three spec parsers: typed errors naming the token, never an
   exception *)

module Fault = Bm_engine.Fault
module Scenario = Bmhive.Scenario
module Topology = Bm_fabric.Topology

(* These used to escape their parser: the scenarios as an uncaught
   Invalid_argument from Scenario.make (an infinite horizon, and one too
   small to hold its own events), the fault plan as a run that hung on an
   infinite horizon. *)
let test_bad_horizon () =
  let names_token what = function
    | Ok _ -> Alcotest.failf "%s accepted horizon=inf" what
    | Error e ->
      check_bool (what ^ " error names the token") true
        (Astring.String.is_infix ~affix:"horizon=inf" e)
  in
  names_token "scenario" (Scenario.parse_spec "1:horizon=inf,hosts=1");
  names_token "faults" (Fault.parse_spec "1:horizon=inf,pmd_crash=1");
  check_bool "denormal horizon" true (Result.is_error (Scenario.parse_spec "1:horizon=5e-324,evac=1"))

let spec_keys =
  [ "hosts"; "links"; "congest"; "evac"; "brownout"; "vfstall"; "vfwedge"; "horizon"; "ramp";
    "tors"; "spines"; "host_gbit"; "spine_gbit"; "host_lat_us"; "spine_lat_us"; "queue" ]
  @ List.map Fault.kind_name Fault.all_kinds

let spec_values =
  [ "0"; "1"; "3"; "-1"; "2.5"; "1e3"; "0x10"; "inf"; "-inf"; "nan"; "5e-324"; "1e-300"; "1e308";
    "0.5-2.0"; "2-1"; "0-inf"; "nan-1"; ""; "=" ]

(* Random comma-separated soups of real keys, boundary values, bare
   words and letter junk, behind a junk, missing or integer seed. Counts
   stay small: the parsers expand them into event lists. *)
let gen_soup =
  let open QCheck.Gen in
  let junk = string_size ~gen:(char_range 'a' 'z') (0 -- 5) in
  let value = frequency [ (4, oneofl spec_values); (1, junk) ] in
  let token =
    frequency
      [
        (6, map2 (fun k v -> k ^ "=" ^ v) (oneofl spec_keys) value);
        (1, oneofl ("default" :: "two_host" :: spec_keys));
        (1, junk);
      ]
  in
  let seed = frequency [ (4, map string_of_int (-3 -- 99)); (1, junk); (1, return "") ] in
  let* body = map (String.concat ",") (list_size (0 -- 5) token) in
  let+ seed = option seed in
  Option.fold ~none:body ~some:(fun s -> s ^ ":" ^ body) seed

let prop_parsers_never_raise =
  QCheck.Test.make ~name:"fault/scenario/topology specs: Ok or Error, never an exception"
    ~count:1000 (QCheck.make ~print:Fun.id gen_soup) (fun s ->
      ignore (Fault.parse_spec s);
      ignore (Scenario.parse_spec s);
      ignore (Topology.parse_spec s);
      true)

let gen_topology =
  let open QCheck.Gen in
  let num lo hi = frequency [ (3, float_range lo hi); (1, map float_of_int (int_range 1 100)) ] in
  let* tors = 1 -- 4 in
  let* hosts = tors -- (tors + 8) in
  let* spines = if tors = 1 then 0 -- 2 else 1 -- 4 in
  let* host_gbit_s = num 1e-3 400.0 and+ spine_gbit_s = num 1e-3 400.0 in
  let* host_us = num 0.0 50.0 and+ spine_us = num 0.0 50.0 in
  let+ queue_capacity = 1 -- 128 in
  Topology.clos ~hosts ~tors ~spines ~host_gbit_s ~spine_gbit_s ~host_latency_ns:(host_us *. 1e3)
    ~spine_latency_ns:(spine_us *. 1e3) ~queue_capacity ()

let prop_topology_round_trip =
  QCheck.Test.make ~name:"topology: parse_spec (render t) = Ok t" ~count:500
    (QCheck.make ~print:Topology.render gen_topology) (fun t ->
      Topology.parse_spec (Topology.render t) = Ok t)

let suites =
  [
    ( "flags.parsers",
      [
        Alcotest.test_case "bad horizon is an error" `Quick test_bad_horizon;
        Alcotest.test_case "run --faults horizon=inf" `Quick
          (rejected ~flag:"--faults" [ "--quick"; "--faults"; "1:horizon=inf,pmd_crash=1"; "availability" ]);
        Alcotest.test_case "run --scenario horizon=inf" `Quick
          (rejected ~flag:"--scenario" [ "--quick"; "--scenario"; "1:horizon=inf,hosts=1"; "game_day" ]);
        QCheck_alcotest.to_alcotest prop_parsers_never_raise;
        QCheck_alcotest.to_alcotest prop_topology_round_trip;
      ] );
    ( "flags.range",
      [
        Alcotest.test_case "run --hosts 0" `Quick
          (rejected ~flag:"--hosts" [ "--quick"; "--hosts"; "0"; "fleet_scale" ]);
        Alcotest.test_case "run --vfs 0" `Quick
          (rejected ~flag:"--vfs" [ "--quick"; "--vfs"; "0"; "vf_scale" ]);
        Alcotest.test_case "main.exe --hosts 1" `Quick
          (rejected ~flag:"--hosts" [ "--quick"; "--hosts"; "1"; "fleet_scale" ]);
        Alcotest.test_case "main.exe --vfs 65" `Quick
          (rejected ~flag:"--vfs" [ "--quick"; "--vfs"; "65"; "vf_scale" ]);
        Alcotest.test_case "run --jobs=-1" `Quick (rejected ~flag:"--jobs" [ "--jobs=-1" ]);
      ] );
    ( "flags.table",
      [
        Alcotest.test_case "no flags = default_ctx" `Quick test_defaults;
        Alcotest.test_case "each flag sets its own field" `Quick test_each_flag_sets_its_field;
        QCheck_alcotest.to_alcotest prop_never_raises;
        (* The fuzz case that found the reflow: [-\n\\/$] reads as the
           short option [-\n], printed as ['-] then a line break. *)
        Alcotest.test_case "short option with a newline is named" `Quick
          (rejected ~flag:"-\n" [ "--datapath=3"; "--hosts"; "-\n\\/$" ]);
      ] );
  ]
