(* Reach gate: every value a lib/ interface exports needs a caller outside
   its own compilation unit, in lib/, bin/, bench/, benchmark/ or
   examples/, and each of its optional arguments a call that passes it,
   in any of those units (the defining one included). Tests do not
   count: a value that only a test calls, or an option only a test sets,
   models nothing the simulator runs. The allowlist names each exception
   with one of three fixed reasons; an option is named as
   "Module.value ?label". A value that nothing calls, not even a test,
   fails whatever the allowlist says.

   Reads the typed trees dune leaves under _build/default, so run it from
   the repository root after `dune build @check`:
     dune build @check && dune exec tools/reach.exe
   It lists each value and option the gate misses, with its allowlist
   reason, and exits 1 when one is not on the allowlist or an allowlist
   entry names nothing the gate misses. The last line splits the
   exported values with no caller in lib/, bin/, bench/ or benchmark/,
   and the optional arguments, by what else reaches them. *)

type reason =
  | Invariant  (** an accessor a test asserts conservation or an invariant on *)
  | Reference  (** a reference or model-test entry point *)
  | Awaits of string  (** waiting on the named ROADMAP item *)

let describe = function
  | Invariant -> "a test asserts conservation or an invariant on it"
  | Reference -> "reference or model-test entry point"
  | Awaits item -> "awaits ROADMAP " ^ item

(* An entry names a value, an optional argument, or a module and so
   every value inside it and their optional arguments. *)
let allowlist =
  List.map
    (fun v -> (v, Invariant))
    [ (* cloud *)
      "Blockstore.rejected"; "Control_plane.admission_rejections";
      "Control_plane.class_rejections"; "Control_plane.lookup"; "Control_plane.server_ceiling";
      "Limits.net_shed"; "Limits.blk_shed"; "Policy.shed_tenants"; "Scheduler.guest_count";
      "Scheduler.guests_on";
      "Tenant.guests"; "Tenant.rejections"; "Tenant.guest_seconds"; "Tenant.bytes"; "Tenant.ios";
      "Vhost_user.ring_enabled"; "Vhost_user.negotiated_features"; "Vhost_user.messages_handled";
      "Vswitch.forwarded"; "Vswitch.dropped"; "Vswitch.unknown_dropped"; "Vswitch.egress_dropped";
      (* core *)
      "Report.table"; "Scenario.at"; "Scenario.ramp"; "Scenario.make";
      (* engine *)
      "Fault.injected"; "Fault.recovered"; "Sim.pending_events"; "Sim.Bounded.rejected";
      "Sim.Bounded.waiting_senders"; "Stats.Summary.count"; "Trace.count"; "Trace.count ?name";
      "Trace.create ?capacity"; "Trace.span_durations";
      (* fabric, hw, hypervisor *)
      "Fabric.link_up"; "Dma.bytes_copied"; "Pcie.bytes_moved"; "Bm_hypervisor.guest_board";
      "Bm_hypervisor.rx_no_buffer_drops"; "Bm_hypervisor.backend_version"; "Bm_hypervisor.pmd_alive";
      "Bm_hypervisor.pmd_crashes"; "Fleet.Live.evacuate ?stream_memory"; "Fleet.Live.occupancy_table";
      "Preempt.stolen_ns";
      (* iobond *)
      "Iobond.mailbox"; "Iobond.base_link"; "Iobond.net_link"; "Iobond.dma"; "Iobond.resets";
      "Mailbox.tail"; "Mailbox.pci_access_count"; "Mailbox.tail_writes"; "Mailbox.lost_tail_writes";
      "Offload.evictions"; "Queue_bridge.completed"; "Queue_bridge.check_invariants"; "Vf.free_vfs";
      "Vf.id"; "Vf.owner"; "Vf.state"; "Vf.rejected"; "Vf.in_flight";
      (* virtio, workloads *)
      "Virtio_net.tx_dropped"; "Virtio_pci.read"; "Virtio_pci.write"; "Virtio_pci.driver_ok";
      "Vring.num_free"; "Vring.in_bytes"; "Rpc.calls_completed"; "Rpc.retransmits" ]
  @ List.map
      (fun v -> (v, Reference))
      [ "Pqueue"; "Queueing"; "Sim.suspend"; "Vhost_user.handle"; "Comparison.properties";
        "Comparison.side_channel_exposed"; "Comparison.provider_secure"; "Instances.eval_instance";
        "Instances.high_frequency"; "Instances.net_limits"; "Instances.blk_limits";
        "Cpu_spec.xeon_e5_2699_v4"; "Cpu_spec.all"; "Cpu_spec.find"; "Guest_os.centos7_3_10";
        "Guest_os.ubuntu18_4_19"; "Guest_os.modern_5_4"; "Guest_os.for_kernel"; "Tlb.reach_bytes";
        "Tlb.miss_rate"; "Tlb.walk_ns"; "Feature.mrg_rxbuf"; "Testbed.bm_guest ?net_limits" ]
  @ [ ("Spinlock", Awaits "open item 1, the sec2_1 row");
      ("Kvm.exit_counters", Awaits "open item 2, the latency ledger's VM-exit layer");
      ("Vmexit", Awaits "open item 2, the latency ledger's VM-exit layer");
      ("Metrics.merge", Awaits "open item 3, parallel sinks") ]

let rec cmts dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then cmts p else if Filename.check_suffix f ".cmt" then [ p ] else [])

type unit_info = { name : string; cmt : string; info : Cmt_format.cmt_infos }

let scan root =
  List.map
    (fun cmt ->
      let info = Cmt_format.read_cmt cmt in
      { name = info.cmt_modname; cmt; info })
    (cmts (Filename.concat "_build/default" root))

let source u = Option.value u.info.cmt_sourcefile ~default:u.cmt

(* [Bm_engine.Fault] is the wrapped library's alias of [Bm_engine__Fault]. *)
let unwrap wrappers = function
  | w :: m :: rest when List.mem w wrappers -> (w ^ "__" ^ m) :: rest
  | p -> p

(* The value paths a unit names, and the optional arguments each call
   passes, as (callee, label). Local module aliases ([module Cp =
   Control_plane], [let module E = ...]) resolve to what they alias, and
   a value or module the unit defines at structure level to its full
   path, so a call inside the defining unit, which names the value by a
   bare [Pident], keys like a call from outside. A module it uses as a
   whole (included, packed or applied) is named with a trailing "*". *)
let references wrappers u =
  let names = Hashtbl.create 64 in
  let rec norm = function
    | Path.Pident id -> (
        match Hashtbl.find_opt names (Ident.unique_name id) with
        | Some p -> p
        | None -> [ Ident.name id ])
    | Pdot (p, s) -> unwrap wrappers (norm p @ [ s ])
    | Papply _ | Pextra_ty _ -> []
  in
  let rec alias_of (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (norm p)
    | Tmod_constraint (me, _, _, _) -> alias_of me
    | _ -> None
  in
  (* The enclosing structure's path; [None] inside a [let module]. *)
  let scope = ref (Some [ u.name ]) in
  let define id =
    Option.iter (fun s -> Hashtbl.replace names (Ident.unique_name id) (s @ [ Ident.name id ])) !scope
  in
  let found = ref [] and passed = ref [] in
  let default = Tast_iterator.default_iterator in
  (* Visit a module body with [inner] as the enclosing path. *)
  let bind (sub : Tast_iterator.iterator) id me inner =
    match (id, alias_of me) with
    | Some id, Some p -> Hashtbl.replace names (Ident.unique_name id) p
    | _ ->
        let outer = !scope in
        scope := inner;
        sub.module_expr sub me;
        scope := outer
  in
  (* An omitted optional argument is a [None] the compiler inserts at a
     ghost location. *)
  let given (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_construct (_, { cstr_name = "None"; _ }, []) -> not e.exp_loc.loc_ghost
    | _ -> true
  in
  let it =
    { default with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> found := norm p :: !found
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              let callee = String.concat "." (norm p) in
              List.iter
                (function
                  | Asttypes.Optional l, Some arg when given arg -> passed := (callee, l) :: !passed
                  | _ -> ())
                args;
              default.expr sub e
          | Texp_letmodule (id, _, _, me, body) ->
              bind sub id me None;
              sub.expr sub body
          | _ -> default.expr sub e);
      structure_item =
        (fun sub si ->
          (match si.str_desc with
          | Tstr_value (_, vbs) -> List.iter define (Typedtree.let_bound_idents vbs)
          | _ -> ());
          default.structure_item sub si);
      module_binding =
        (fun sub mb ->
          let inner =
            match (mb.mb_id, !scope) with
            | Some id, Some s ->
                define id;
                Some (s @ [ Ident.name id ])
            | _ -> None
          in
          bind sub mb.mb_id mb.mb_expr inner);
      module_expr =
        (fun sub me ->
          match me.mod_desc with
          | Tmod_ident (p, _) -> found := (norm p @ [ "*" ]) :: !found
          | _ -> default.module_expr sub me);
      open_declaration = (fun _ _ -> ()) }
  in
  (match u.info.cmt_annots with Implementation s -> it.structure it s | _ -> ());
  (!found, !passed)

let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, r, _) -> l :: optionals r
  | Tarrow (_, _, r, _) -> optionals r
  | _ -> []

let rec values path (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, _) -> [ (path @ [ Ident.name id ], optionals vd.val_type) ]
      | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) -> values (path @ [ Ident.name id ]) sg
      | _ -> [])
    sg

(* A unit's exports, from its .mli when it has one, with that file's name. *)
let exports u =
  let cmti = u.cmt ^ "i" in
  match (u.info.cmt_annots, Sys.file_exists cmti) with
  | _, true -> (
      let i = Cmt_format.read_cmt cmti in
      match i.cmt_annots with
      | Interface s -> values [ u.name ] s.sig_type |> List.map (fun v -> (i.cmt_sourcefile, v))
      | _ -> [])
  | Implementation s, false -> values [ u.name ] s.str_type |> List.map (fun v -> (u.info.cmt_sourcefile, v))
  | _ -> []

let () =
  let lib = scan "lib" in
  let wrappers, modules = List.partition (fun u -> Filename.check_suffix (source u) ".ml-gen") lib in
  let wrappers = List.map (fun u -> u.name) wrappers in
  (* For each path a group of units names, the names of those units;
     and each (callee, label) a call in the group passes. *)
  let index units =
    let refs = Hashtbl.create 4096 and args = Hashtbl.create 1024 in
    List.iter
      (fun u ->
        let found, passed = references wrappers u in
        List.iter (fun p -> Hashtbl.add refs (String.concat "." p) u.name) found;
        List.iter (fun a -> Hashtbl.replace args a ()) passed)
      units;
    (refs, args)
  in
  let main, main_args = index (modules @ List.concat_map scan [ "bin"; "bench"; "benchmark" ])
  and examples, example_args = index (scan "examples")
  and tests, test_args = index (scan "test") in
  let reached t unit path =
    let named key = List.exists (fun n -> n <> unit) (Hashtbl.find_all t key) in
    let rec prefixes acc = function
      | [] -> false
      | x :: rest ->
          let acc = acc @ [ x ] in
          named (String.concat "." (acc @ [ "*" ])) || prefixes acc rest
    in
    named (String.concat "." path) || prefixes [] path
  in
  let exported = List.concat_map (fun u -> List.map (fun e -> (u.name, e)) (exports u)) modules in
  (* [Bm_engine__Sim; Bounded; recv] prints as Sim.Bounded.recv. *)
  let short path =
    let m = List.hd path in
    let rec cut i =
      if i + 2 >= String.length m then m
      else if m.[i] = '_' && m.[i + 1] = '_' then String.sub m (i + 2) (String.length m - i - 2)
      else cut (i + 1)
    in
    String.concat "." (cut 1 :: List.tl path)
  in
  let allowed name =
    List.find_opt
      (fun (e, _) -> e = name || String.starts_with ~prefix:(e ^ ".") name)
      allowlist
  in
  let failed = ref false and used = Hashtbl.create 16 in
  let check src name miss =
    match allowed name with
    | Some (e, r) ->
        Hashtbl.replace used e ();
        Printf.printf "%s: %s: allowed, %s\n" src name (describe r)
    | None ->
        failed := true;
        Printf.printf "%s: %s: %s\n" src name miss
  in
  let unreached = ref 0 and by_examples = ref 0 and by_tests = ref 0 in
  let opts = ref 0 and opts_examples = ref 0 and opts_tests = ref 0 and opts_unpassed = ref 0 in
  List.iter
    (fun (unit, (src, (path, labels))) ->
      let src = Option.value src ~default:unit in
      if not (reached main unit path) then begin
        incr unreached;
        if reached examples unit path then incr by_examples
        else if reached tests unit path then begin
          incr by_tests;
          check src (short path)
            "no caller outside its own module and the tests; delete it, drop it from the interface or give it a caller"
        end
        else begin
          (* No allowlist reason covers a value nothing runs. *)
          failed := true;
          Printf.printf "%s: %s: nothing calls it, tests included; delete it\n" src (short path)
        end
      end;
      List.iter
        (fun l ->
          let arg = (String.concat "." path, l) in
          incr opts;
          if Hashtbl.mem main_args arg then ()
          else if Hashtbl.mem example_args arg then incr opts_examples
          else begin
            incr (if Hashtbl.mem test_args arg then opts_tests else opts_unpassed);
            check src
              (short path ^ " ?" ^ l)
              "no call outside the tests passes it; fold it into its default or give it a caller"
          end)
        labels)
    exported;
  List.iter
    (fun (e, _) ->
      if not (Hashtbl.mem used e) then begin
        failed := true;
        Printf.printf "allowlist: %s names no value the gate misses; drop the entry\n" e
      end)
    allowlist;
  Printf.printf
    "%d exported values, %d with no caller in lib/, bin/, bench/ or benchmark/: %d reached by examples, %d only by tests, %d by nothing; %d optional arguments: %d passed by runs, %d only by examples, %d only by tests, %d by nothing\n"
    (List.length exported) !unreached !by_examples !by_tests
    (!unreached - !by_examples - !by_tests)
    !opts
    (!opts - !opts_examples - !opts_tests - !opts_unpassed)
    !opts_examples !opts_tests !opts_unpassed;
  exit (if !failed then 1 else 0)
