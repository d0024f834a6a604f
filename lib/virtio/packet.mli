(** Network packets flowing through the simulated data paths. *)

type protocol = Udp | Tcp | Icmp

type t = {
  id : int;
  src : int;  (** endpoint id of the sender *)
  dst : int;  (** endpoint id of the receiver *)
  size : int;  (** bytes on the wire, headers included — aggregate of the burst *)
  count : int;  (** number of wire packets this value represents (batch
                   aggregation, as PMD/NAPI paths process packets in
                   bursts; keeps multi-MPPS simulations tractable) *)
  protocol : protocol;
  tag : int;  (** application-level discriminator (0 = data; RPC layers
                 use it for control traffic like SYN/FIN) *)
  sent_at : float;  (** simulated timestamp at creation *)
}

val make :
  id:int -> src:int -> dst:int -> size:int -> ?count:int -> ?tag:int -> protocol:protocol ->
  sent_at:float -> unit -> t
(** [size] is the aggregate wire size of the whole burst; [count]
    defaults to 1, [tag] to 0. *)

val udp_header_bytes : int
(** Ethernet + IP + UDP headers: 14 + 20 + 8 = 42 bytes. *)

val tcp_header_bytes : int
(** Ethernet + IP + TCP headers: 14 + 20 + 20 = 54 bytes. *)

val small_udp : id:int -> src:int -> dst:int -> ?count:int -> sent_at:float -> unit -> t
(** The paper's PPS test packet: headers plus one byte of payload (§4.3);
    [count] of them aggregated as one burst. *)
