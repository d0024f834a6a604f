(** Registry of reproducible experiments — one per table/figure of the
    paper plus the numbered in-text results.

    Each experiment builds its own simulated testbed (fresh simulator,
    deterministic seed), runs the corresponding workload, and returns a
    table of typed cells ({!Report.cell}) with paper-vs-measured
    columns where the paper reports concrete numbers. [quick] shrinks
    durations/population sizes so the whole suite stays fast in tests;
    headline numbers in EXPERIMENTS.md come from full runs. *)

type outcome = {
  id : string;
  title : string;
  header : string list;
  rows : Report.cell list list;  (** one {!Report.cell} per header column *)
  notes : string list;
}

type ctx = {
  seed : int;  (** seed of every simulator the experiment builds *)
  quick : bool;  (** CI-sized populations and durations *)
  trace : Bm_engine.Trace.t option;
  metrics : Bm_engine.Metrics.t option;
      (** [trace]/[metrics] are threaded into every testbed the
          experiment builds. Recording is pure observation: results are
          bit-identical with and without sinks attached. *)
  faults : Bm_engine.Fault.plan option;
      (** armed in the testbeds of [availability], [overload] (its soak
          rows), [vf_scale], [vf_reassign] and [vf_ablation]; the others
          ignore it *)
  topo : Bm_fabric.Topology.t option;
      (** fabric topology of the cross-host ([xhost_*]) and fleet
          experiments; single-server experiments ignore it *)
  jobs : int;
      (** domains a run may use ({!run}): the experiments of a run, or
          the scenario arms of [game_day]/[policy_race] and the cells of
          [vf_scale]/[vf_ablation] when it runs one experiment. Output
          is byte-identical for any value. *)
  scenario : Scenario.spec option;
      (** timeline of [game_day] and [policy_race]; [None] is
          {!Scenario.default_spec} at [seed] *)
  policy : Bm_cloud.Policy.kind option;
      (** degradation policy [game_day] closes the loop with; [None] is
          the ladder. [policy_race] runs every policy regardless. *)
  hosts : int option;
  guests : int option;
  tenants : int option;
      (** [fleet_scale] size overrides; [None] keeps the quick/full
          config. Hosts >= 2, guests and tenants >= 1. *)
  vfs : int option;
      (** virtual functions per SR-IOV device/pool in the [vf_*]
          experiments, 1..64; [None] keeps each experiment's default *)
  datapath : Bm_iobond.Vf.datapath option;
      (** restrict [vf_ablation] to one datapath column; [None] runs all
          three *)
}
(** Everything settable about a run. Each experiment reads the fields it
    models and ignores the rest. Same [ctx] (and same fault plan) ⇒
    bit-identical outcome. *)

val default_ctx : ctx
(** Seed 2020, full scale, one domain, no sinks, every override [None]. *)

type spec = {
  id : string;
  title : string;
  paper_ref : string;  (** table/figure/section in the paper *)
  run : ctx -> outcome;
}

val all : spec list
val ids : unit -> string list

val run : ctx -> string list -> (string * (outcome, string) result) list
(** Run the named experiments, up to [ctx.jobs] at a time on separate
    domains ({!Parallel.map}); results come back in argument order, so
    output is byte-identical for any [jobs]. One id gets all [ctx.jobs]
    domains for its arms and cells; with several, each experiment runs
    its own sequentially, so no run uses more than [ctx.jobs] domains.
    Unknown ids surface as [Error] without aborting the rest. Because
    [trace] and [metrics] sinks are shared mutable buffers, passing
    either runs everything on one domain. *)

val print_outcome : outcome -> unit
(** The outcome's table, each cell rendered by {!Report.show}, then its
    notes. *)
