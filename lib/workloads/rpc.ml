open Bm_engine
open Bm_virtio
open Bm_guest

type reply = { reply_bytes : int; reply_packets : int }

(* Tags discriminate RPC traffic classes on the wire. *)
let tag_request = 0
let tag_reply = 2
let tag_syn = 1
let tag_synack = 4
let tag_fin = 3

let attach_server instance ~service =
  (* A full tx ring backpressures (qdisc requeue) rather than dropping
     the reply: retry with a small backoff. *)
  let send_reply (req : Packet.t) ~tag ~bytes ~packets =
    let size = bytes + (Packet.tcp_header_bytes * packets) in
    let pkt () =
      Packet.make ~id:req.Packet.id ~src:instance.Instance.endpoint ~dst:req.Packet.src ~size
        ~count:packets ~tag ~protocol:req.Packet.protocol ~sent_at:(Sim.clock ()) ()
    in
    let rec go tries =
      if not (instance.Instance.send (pkt ())) && tries < 200 then begin
        Sim.delay 5_000.0;
        go (tries + 1)
      end
    in
    go 0
  in
  instance.Instance.set_rx_handler (fun req ->
      if req.Packet.tag = tag_syn then begin
        (* Kernel-level accept: wake a worker on another core, arm the
           SYN-ACK retransmit and keepalive timers, send the synack. *)
        instance.Instance.ipi ();
        instance.Instance.timer_arm ();
        send_reply req ~tag:tag_synack ~bytes:0 ~packets:1
      end
      else if req.Packet.tag = tag_fin then
        (* Teardown arms the TIME_WAIT timer. *)
        instance.Instance.timer_arm ()
      else begin
        instance.Instance.pause ();
        let r = service req in
        send_reply req ~tag:tag_reply ~bytes:r.reply_bytes ~packets:r.reply_packets
      end)

type client = {
  sim : Sim.t;
  instance : Instance.t;
  pending : (int, float Sim.Ivar.ivar) Hashtbl.t;
  mutable next_id : int;
  mutable completed : int;
  mutable retransmits : int;
}

let create_client sim instance =
  let t =
    { sim; instance; pending = Hashtbl.create 64; next_id = 1; completed = 0; retransmits = 0 }
  in
  instance.Instance.set_rx_handler (fun pkt ->
      match Hashtbl.find_opt t.pending pkt.Packet.id with
      | Some ivar ->
        Hashtbl.remove t.pending pkt.Packet.id;
        Sim.Ivar.fill ivar (Sim.clock ())
      | None -> ());
  t

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Wait for [ivar] or give up after [timeout] ns. The timeout is a
   cancellable timer, taken back when the reply lands, so a round trip
   leaves no sleeper behind on the agenda. It is armed from a zero-delay
   callback standing where a sleeping fiber's start would stand in the
   lane, so it gets the (time, seq) key that fiber's [Sim.delay] would
   get, and every other event keeps its place in the order. *)
let read_with_timeout t ivar ~timeout =
  let cell = Sim.Ivar.create () in
  let timer = ref None in
  let settle v =
    if not (Sim.Ivar.is_filled cell) then begin
      Option.iter (Sim.cancel t.sim) !timer;
      Sim.Ivar.fill cell v
    end
  in
  Sim.spawn t.sim (fun () -> settle (Some (Sim.Ivar.read ivar)));
  Sim.schedule t.sim ~delay:0.0 (fun () ->
      if not (Sim.Ivar.is_filled cell) then
        timer := Some (Sim.schedule_cancellable t.sim ~delay:timeout (fun () -> settle None)));
  Sim.Ivar.read cell

(* TCP-style delivery: retransmit on loss (a dropped SYN or request —
   e.g. the server momentarily out of posted rx buffers) with a 100 ms
   RTO, up to [max_tries]. *)
let rto_ns = 100e6
let max_tries = 8

(* Every request is one packet. *)
let round_trip t ~dst ~tag ~bytes =
  let id = fresh_id t in
  let ivar = Sim.Ivar.create () in
  Hashtbl.replace t.pending id ivar;
  let size = bytes + Packet.tcp_header_bytes in
  let transmit () =
    ignore
      (t.instance.Instance.send
         (Packet.make ~id ~src:t.instance.Instance.endpoint ~dst ~size ~tag ~protocol:Packet.Tcp
            ~sent_at:(Sim.clock ()) ()))
  in
  let rec attempt tries =
    if tries >= max_tries then begin
      Hashtbl.remove t.pending id;
      None
    end
    else begin
      if tries > 0 then t.retransmits <- t.retransmits + 1;
      transmit ();
      match read_with_timeout t ivar ~timeout:rto_ns with
      | Some v -> Some v
      | None -> attempt (tries + 1)
    end
  in
  attempt 0

let call t ~dst ?(request_bytes = 200) ?(handshake = false) ?(tag = tag_request) () =
  let t0 = Sim.clock () in
  let ok =
    if handshake then
      match round_trip t ~dst ~tag:tag_syn ~bytes:0 with
      | Some _ -> true
      | None -> false
    else true
  in
  if not ok then `Timeout
  else begin
    match round_trip t ~dst ~tag ~bytes:request_bytes with
    | None -> `Timeout
    | Some _ ->
      if handshake then
        (* Connection teardown: fire-and-forget FIN. *)
        ignore
          (t.instance.Instance.send
             (Packet.make ~id:(fresh_id t) ~src:t.instance.Instance.endpoint ~dst
                ~size:Packet.tcp_header_bytes ~tag:tag_fin ~protocol:Packet.Tcp
                ~sent_at:(Sim.clock ()) ()));
      t.completed <- t.completed + 1;
      `Reply (Sim.clock () -. t0)
  end

let calls_completed t = t.completed
let retransmits t = t.retransmits
