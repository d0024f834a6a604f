open Bm_virtio

(* A flow key is only ever read whole, by the table's structural hash
   and equality, which warning 69 (unused field) cannot see. *)
type flow = { f_src : int; f_dst : int; f_proto : int } [@@warning "-69"]

type t = {
  table : (flow, unit) Hashtbl.t;
  order : flow Queue.t; (* installation order, for eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let fpga_forward_ns = 120.0

(* Flow-table entries: FPGA TCAM-sized. *)
let capacity = 2048

let create () =
  {
    table = Hashtbl.create capacity;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let occupancy t = Hashtbl.length t.table

let proto_id = function Packet.Udp -> 0 | Packet.Tcp -> 1 | Packet.Icmp -> 2

let flow_of (pkt : Packet.t) =
  { f_src = pkt.Packet.src; f_dst = pkt.Packet.dst; f_proto = proto_id pkt.Packet.protocol }

let classify t pkt =
  if Hashtbl.mem t.table (flow_of pkt) then begin
    t.hits <- t.hits + pkt.Packet.count;
    `Offloaded
  end
  else begin
    t.misses <- t.misses + pkt.Packet.count;
    `Slow_path
  end

let rec evict_to_fit t =
  if Hashtbl.length t.table >= capacity then begin
    match Queue.take_opt t.order with
    | Some victim ->
      if Hashtbl.mem t.table victim then begin
        Hashtbl.remove t.table victim;
        t.evictions <- t.evictions + 1
      end;
      evict_to_fit t
    | None -> ()
  end

let install t pkt =
  let flow = flow_of pkt in
  if not (Hashtbl.mem t.table flow) then begin
    evict_to_fit t;
    Hashtbl.replace t.table flow ();
    Queue.add flow t.order
  end

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
