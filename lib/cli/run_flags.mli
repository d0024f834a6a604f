(** The run flags shared by [bmhive run] and [bench/main.exe]: each flag's
    name, doc string, converter and range check is written once here, and
    both front ends parse the same command line into the same
    {!Bmhive.Experiments.ctx}. Values are parsed and checked at this
    boundary only: a bad value is a usage error naming its flag. *)

type t = {
  ctx : Bmhive.Experiments.ctx;
  ids : string list;  (** the positional ids; every registered id when none given *)
  trace_file : string option;  (** where {!run} writes [ctx.trace] *)
}

val term : t Cmdliner.Term.t

val seed : int Cmdliner.Term.t
(** [--seed] alone, for commands that run no experiment. *)

val run : t -> unit Cmdliner.Term.ret
(** Run [ids] ({!Bmhive.Experiments.run}) and print each outcome in
    order, then the metrics table and the trace file when asked for.
    An unknown id is an [`Error] with its message; outcomes before it
    are printed, the sinks are not. *)
