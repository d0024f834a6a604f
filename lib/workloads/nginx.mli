(** NGINX + Apache HTTP benchmark model (Fig. 12).

    "we used the Apache HTTP benchmark to test the NGINX server with the
    KeepAlive feature disabled" — every request pays a TCP handshake
    (kernel accept + a cross-core worker wakeup) and teardown, then the
    server parses the request and serves a small static page. Throughput
    and mean response time are reported per client-concurrency level, as
    the figure sweeps them. *)

type result = {
  concurrency : int;
  requests : int;
  rps : float;
  avg_ms : float;  (** mean time per request, the `ab` headline number *)
  p99_ms : float;
}

val serve : Bm_guest.Instance.t -> unit -> unit
(** Install the NGINX service: 45 µs of accept+parse+serve work per
    request, responding with 612 bytes (the stock nginx welcome page;
    large pages would hit the 10 Gbit/s egress limit instead of
    exercising the request path). *)

val ab :
  Bm_engine.Sim.t ->
  client:Bm_guest.Instance.t ->
  server:Bm_guest.Instance.t ->
  concurrency:int ->
  requests:int ->
  result
(** Run `ab -c concurrency -n requests` with KeepAlive off. *)
