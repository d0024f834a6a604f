(** Request/response plumbing over instance network endpoints.

    The application benchmarks (NGINX, MariaDB, Redis) are all
    request/response services; this module provides the shared client
    and server machinery: the server half dispatches each arriving
    request into a fresh guest process that runs a user-supplied service
    function and transmits the reply burst; the client half matches
    replies to outstanding calls by packet id and wakes the caller. *)

type reply = {
  reply_bytes : int;  (** payload bytes of the reply (headers added per packet) *)
  reply_packets : int;  (** wire packets the reply occupies *)
}

val attach_server :
  Bm_guest.Instance.t ->
  service:(Bm_virtio.Packet.t -> reply) ->
  unit
(** Install the service on the instance's rx handler. [service] runs in a
    guest process {e before} reply transmission; perform CPU/memory/disk
    work inside it via the instance's own closures. *)

type client

val create_client : Bm_engine.Sim.t -> Bm_guest.Instance.t -> client
(** Take over the instance's rx handler for reply dispatch. One client
    per instance; many concurrent {!call}s per client. *)

val call :
  client ->
  dst:int ->
  ?request_bytes:int ->
  ?handshake:bool ->
  ?tag:int ->
  unit ->
  [ `Reply of float | `Timeout ]
(** Perform one call and return its latency in ns: a one-packet
    request of [request_bytes] (default 200). With [handshake] (TCP
    accept, default false) an extra round trip and connection teardown
    packets are added — the KeepAlive-off behaviour of the NGINX test.
    Lost packets are retransmitted with a 100 ms RTO; [`Timeout] after 8
    attempts. [tag] (default 0; values ≥ 8 are free for applications) is
    visible to the server's service function — a poor man's request
    header. *)

val calls_completed : client -> int
val retransmits : client -> int
