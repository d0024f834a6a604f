(** Lightweight structured tracing for simulations.

    A trace collects timestamped events (instants, spans, counters) from
    anywhere in a simulation, bounded in memory, and renders them as a
    text timeline or chrome://tracing-style summary. Used when debugging
    data paths (which hop ate the latency?) and by tests that assert on
    event ordering. Tracing is off unless a sink is installed;
    components record through {!Obs} probes, which stamp each event
    with the simulation clock. *)

type t

type event = {
  at : float;  (** simulated timestamp, ns *)
  track : string;  (** component emitting the event, e.g. "iobond.tx" *)
  name : string;
  kind : [ `Instant | `Begin | `End | `Counter of float ];
}

val create : ?capacity:int -> unit -> t
(** Ring buffer of the last [capacity] events (default 65536). *)

val instant : t -> track:string -> string -> now:float -> unit
val begin_span : t -> track:string -> string -> now:float -> unit
val end_span : t -> track:string -> string -> now:float -> unit
val counter : t -> track:string -> string -> now:float -> float -> unit

val events : t -> event list
(** Oldest first; at most [capacity]. *)

val dropped : t -> int
(** Events discarded because the buffer wrapped. *)

val count : t -> track:string -> ?name:string -> unit -> int
(** Events recorded for a track (optionally one event name). *)

val span_durations : t -> track:string -> string -> float list
(** Durations of completed spans with this name, in emission order. *)

val export_json : t -> string
(** Chrome [trace_event] JSON ({{:https://ui.perfetto.dev}Perfetto} /
    chrome://tracing): one thread per track, [B]/[E] for spans, [i] for
    instants, [C] for counters, timestamps in µs. The output is a
    deterministic function of the recorded events. *)
