open Cmdliner
module E = Bmhive.Experiments

type t = { ctx : E.ctx; ids : string list; trace_file : string option }

let conv docv parse print =
  Arg.conv' ~docv (parse, fun ppf v -> Format.pp_print_string ppf (print v))

let named docv of_name name all =
  let parse s =
    match of_name s with
    | Some v -> Ok v
    | None ->
      Error
        (Printf.sprintf "unknown %s %S (try: %s)" (String.lowercase_ascii docv) s
           (String.concat ", " (List.map name all)))
  in
  conv docv parse name

(* Each integer is checked against the bound its consumer enforces, so an
   out-of-range value is a usage error naming the flag, not an exception
   from deep inside a run. *)
let int_in ?max min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && Option.fold max ~none:true ~some:(fun m -> n <= m) -> Ok n
    | _ ->
      Error
        (match max with
        | Some m -> Printf.sprintf "expected an integer in %d..%d, got %S" min m s
        | None -> Printf.sprintf "expected an integer >= %d, got %S" min s)
  in
  conv "N" parse string_of_int

let opt_some c names ~docv doc = Arg.(value & opt (some c) None & info names ~docv ~doc)
let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let quick = flag "quick" "Run at reduced scale (CI-sized populations and durations)."
let seed =
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed for every simulation.")

let trace =
  opt_some Arg.string [ "trace" ] ~docv:"FILE"
    "Record the datapath as Chrome trace_event JSON into $(docv) (open in chrome://tracing or \
     Perfetto)."

let metrics = flag "metrics" "Collect datapath metrics and print the summary table after the run."

let faults =
  opt_some
    (conv "SEED:SPEC" Bm_engine.Fault.parse_spec Bm_engine.Fault.render_plan)
    [ "faults" ] ~docv:"SEED:SPEC"
    "Arm a deterministic fault plan in the testbeds of the availability, overload (its \
     combined faults+overload soak rows), vf_scale, vf_reassign and vf_ablation experiments; \
     the others ignore it. Given as $(i,SEED):$(i,SPEC) where SPEC is $(b,default) or \
     comma-separated $(i,kind)=$(i,count) pairs (kinds: link_down, dma_stall, mailbox_drop, \
     firmware_wedge, pmd_crash, server_failure, fabric_link_down, vf_stall, \
     vf_reassign_timeout), optionally with horizon=$(i,NS). Example: \
     42:link_down=2,firmware_wedge=1."

let scenario =
  opt_some
    (conv "SEED:SPEC" Bmhive.Scenario.parse_spec Bmhive.Scenario.render)
    [ "scenario" ] ~docv:"SEED:SPEC"
    "Scenario timeline for the $(b,game_day) and $(b,policy_race) experiments, as \
     $(i,SEED):$(i,SPEC) where SPEC is $(b,default) or comma-separated $(i,key)=$(i,value) pairs \
     (keys: hosts, links, congest, evac, brownout, vfstall, vfwedge, ramp=$(i,lo)-$(i,hi), \
     horizon=$(i,NS)). Example: 42:hosts=2,links=1,congest=1,evac=1."

let policy =
  opt_some
    (named "POLICY" Bm_cloud.Policy.of_name Bm_cloud.Policy.name Bm_cloud.Policy.all)
    [ "policy" ] ~docv:"NAME"
    "Degradation policy the $(b,game_day) experiment closes the loop with: $(b,ladder) \
     (default, the legacy three-stage ladder), $(b,selective) (blast-radius-aware shedding), \
     $(b,tiered) (per-tier admission ceilings) or $(b,congestion) (spine-queue / gold-p99 \
     aware). The $(b,policy_race) experiment runs all four regardless."

let topology =
  opt_some
    (conv "SPEC" Bm_fabric.Topology.parse_spec Bm_fabric.Topology.render)
    [ "topology" ] ~docv:"SPEC"
    "Fabric topology for the cross-host ($(b,xhost_rr), $(b,xhost_stream), $(b,xhost_migrate)) \
     and fleet experiments: the preset $(b,two_host), or comma-separated $(i,key)=$(i,value) \
     pairs (keys: hosts, tors, spines, host_gbit, spine_gbit, host_lat_us, spine_lat_us, \
     queue). Example: hosts=4,tors=2,spines=2,spine_gbit=10."

let hosts = opt_some (int_in 2) [ "hosts" ] ~docv:"N" "Host count of $(b,fleet_scale) (>= 2)."
let guests = opt_some (int_in 1) [ "guests" ] ~docv:"N" "Guest population of $(b,fleet_scale) (>= 1)."
let tenants = opt_some (int_in 1) [ "tenants" ] ~docv:"N" "Tenant count of $(b,fleet_scale) (>= 1)."

let vfs =
  opt_some (int_in ~max:64 1) [ "vfs" ] ~docv:"N"
    "Virtual functions per SR-IOV device/pool (1..64) in the $(b,vf_scale), $(b,vf_reassign) \
     and $(b,vf_ablation) experiments; each experiment's default otherwise."

let datapath =
  opt_some
    (named "DATAPATH" Bm_iobond.Vf.datapath_of_name Bm_iobond.Vf.datapath_name
       Bm_iobond.Vf.all_datapaths)
    [ "datapath" ] ~docv:"NAME"
    "Restrict the $(b,vf_ablation) experiment to one guest datapath: $(b,vring) (the \
     shadow-vring poll loop), $(b,passthrough) (whole-device assignment) or $(b,vf) (one sliced \
     virtual function); all three when omitted."

let jobs =
  Arg.(
    value & opt (int_in 0) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run on up to $(docv) domains (0 = one per recommended core): several experiments \
           run concurrently, each on one domain; a single one gets all $(docv) for its parts \
           ($(b,game_day) and $(b,policy_race) race their scenario arms, $(b,vf_scale) and \
           $(b,vf_ablation) their cells). Results are joined in argument order, so output is \
           byte-identical for any value. Forced to 1 when $(b,--trace) or $(b,--metrics) is \
           active.")

let ids =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"ID" ~doc:"Experiment ids ($(b,bmhive list) prints them); all when omitted.")

let term =
  let make quick seed trace_file metrics faults scenario policy topo hosts guests tenants vfs
      datapath jobs ids =
    let ctx =
      {
        E.seed;
        quick;
        trace = Option.map (fun _ -> Bm_engine.Trace.create ()) trace_file;
        metrics = (if metrics then Some (Bm_engine.Metrics.create ()) else None);
        faults;
        topo;
        jobs = (if jobs = 0 then Bmhive.Parallel.default_jobs () else jobs);
        scenario;
        policy;
        hosts;
        guests;
        tenants;
        vfs;
        datapath;
      }
    in
    { ctx; ids = (if ids = [] then E.ids () else ids); trace_file }
  in
  Term.(
    const make $ quick $ seed $ trace $ metrics $ faults $ scenario $ policy $ topology $ hosts
    $ guests $ tenants $ vfs $ datapath $ jobs $ ids)

let run { ctx; ids; trace_file } =
  let rec print = function
    | [] -> Ok ()
    | (_, Ok outcome) :: rest ->
      E.print_outcome outcome;
      print rest
    | (_, Error e) :: _ -> Error e
  in
  match print (E.run ctx ids) with
  | Error e -> `Error (false, e)
  | Ok () ->
    (match ctx.metrics with
    | Some m when not (Bm_engine.Metrics.is_empty m) ->
      print_endline "";
      print_endline (Bmhive.Report.metrics_table ~title:"datapath metrics" m)
    | Some _ | None -> ());
    (match (trace_file, ctx.trace) with
    | Some file, Some t ->
      Out_channel.with_open_text file (fun oc -> output_string oc (Bm_engine.Trace.export_json t));
      let kept = List.length (Bm_engine.Trace.events t) in
      let dropped = Bm_engine.Trace.dropped t in
      Printf.printf "\ntrace: %d event(s) written to %s (open in chrome://tracing)%s\n" kept file
        (if dropped > 0 then
           Printf.sprintf "; %d earlier event(s) dropped: the file holds only the last %d" dropped
             kept
         else "")
    | _ -> ());
    `Ok ()
