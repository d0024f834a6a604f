(** Conservative parallel discrete-event simulation across {!Sim.t}
    shards (hosts partitioned by rack, tenant, or any cut with latency
    between the parts).

    The scheme is the synchronous conservative window protocol (YAWNS):
    each round computes [t_min], the earliest pending event across all
    shards, and [w = t_min + L] where [L] is the minimum conduit
    lookahead; every shard then executes its events strictly before [w]
    — in parallel on up to [domains] OCaml domains, because within the
    window the shards share nothing. A cross-shard message sent inside
    the window arrives no earlier than its send time plus the conduit's
    lookahead, hence no earlier than [w]: parallel window execution is
    exact. At the barrier, buffered messages merge in [(arrival,
    src_shard, src_seq)] order — a total order — and are injected into
    destination agendas, so the whole run is byte-identical for any
    domain count, including [domains = 1].

    Lookahead is the model's honesty about physics: a Fabric link with
    propagation delay [d] between two shards yields a conduit with
    [lookahead_ns = d]. Positive lookahead also guarantees progress:
    every round executes at least the events at [t_min].

    Model discipline: state reachable from a shard's events must belong
    to that shard alone; cross-shard interaction goes through {!send}.
    The scheduler cannot check this — a shared mutable counter touched
    from two shards is a data race under [domains >= 2] and a silent
    determinism leak even under one. *)

type t
(** A sharded simulation: one {!Sim.t} per shard plus the conduit
    graph. *)

type conduit
(** A directed cross-shard edge with a positive lookahead: a promise
    that every message sent on it has [delay >= lookahead]. *)

val create : shards:int -> unit -> t
(** [create ~shards ()] makes [shards] independent simulators (at least
    one). Raises [Invalid_argument] otherwise. *)

val sim : t -> int -> Sim.t
(** The [i]-th shard's simulator, for spawning processes and local
    scheduling. Raises [Invalid_argument] out of range. *)

val conduit : t -> src:int -> dst:int -> lookahead_ns:float -> conduit
(** Declare a directed cross-shard edge. [lookahead_ns] must be
    strictly positive and [src <> dst] (local events need no conduit);
    raises [Invalid_argument] otherwise. *)

val send : t -> conduit -> delay:float -> (unit -> unit) -> unit
(** [send t c ~delay fn] schedules [fn] on the conduit's destination
    shard at [now src + delay]. Must be called from an event running on
    the source shard; [delay] must be at least the conduit's lookahead (raises
    [Invalid_argument] below it — an undeclared fast path would break
    the conservative bound). The message buffers in the source shard's
    outbox and is injected at the next barrier. *)

val run : ?domains:int -> t -> unit
(** Run rounds of window-compute / parallel-execute / barrier-merge
    until every agenda drains. [domains] (default 1, i.e. sequential)
    caps the OCaml domains used per window; output is byte-identical
    regardless of its value. *)

type stats = {
  shards : int;
  rounds : int;  (** windows executed *)
  cross_messages : int;  (** messages merged at barriers *)
  min_window_ns : float;
      (** narrowest lookahead that bounded a window ([infinity] if no
          bounded window ever ran) *)
  lookahead_ns : float;  (** min conduit lookahead at the last round *)
}

val stats : t -> stats
