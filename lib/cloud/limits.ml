open Bm_engine

type policy = Block | Shed

type net = {
  pps : Token_bucket.t;
  net_bw : Token_bucket.t;
  mutable net_policy : policy;
  mutable net_shed : int;
}

type blk = {
  iops : Token_bucket.t;
  blk_bw : Token_bucket.t;
  mutable blk_policy : policy;
  mutable blk_shed : int;
}

(* Bursts sized at ~2 ms of the sustained rate: big enough to absorb PMD
   batches, small enough that the limit binds within any measurement. *)
let burst_of rate = Float.max 1.0 (rate *. 0.002)

let bucket rate = Token_bucket.create ~rate ~burst:(burst_of rate)

let custom_net ?(policy = Block) ~pps ~gbit_s () =
  { pps = bucket pps; net_bw = bucket (gbit_s *. 1e9 /. 8.0); net_policy = policy; net_shed = 0 }

let custom_blk ?(policy = Block) ~iops ~mb_s () =
  { iops = bucket iops; blk_bw = bucket (mb_s *. 1e6); blk_policy = policy; blk_shed = 0 }

(* A degradation-policy admission ceiling: fail-fast (Shed) on the
   packet rate alone, with bandwidth left effectively unconstrained —
   the knob a per-tier ceiling turns is "how many requests per second",
   not "how fat they are". *)
let ceiling_net ~pps () = custom_net ~policy:Shed ~pps ~gbit_s:1e4 ()

let cloud_net ?policy () = custom_net ?policy ~pps:4e6 ~gbit_s:10.0 ()
let cloud_blk ?policy () = custom_blk ?policy ~iops:25e3 ~mb_s:300.0 ()

let unlimited_net () =
  {
    pps = Token_bucket.unlimited ();
    net_bw = Token_bucket.unlimited ();
    net_policy = Block;
    net_shed = 0;
  }

let unlimited_blk () =
  {
    iops = Token_bucket.unlimited ();
    blk_bw = Token_bucket.unlimited ();
    blk_policy = Block;
    blk_shed = 0;
  }

let net_shed t = t.net_shed
let blk_shed t = t.blk_shed

let net_admit t ~packets ~bytes_ =
  let p = float_of_int packets and b = float_of_int bytes_ in
  match t.net_policy with
  | Block ->
    ignore (Token_bucket.take_n t.pps p);
    ignore (Token_bucket.take_n t.net_bw b);
    true
  | Shed ->
    let now = Sim.clock () in
    (* Probe both buckets before consuming either, so a burst that fails
       one limit leaves the other untouched. *)
    if Token_bucket.available t.pps ~now >= p && Token_bucket.available t.net_bw ~now >= b
    then begin
      ignore (Token_bucket.try_take_n t.pps ~now p);
      ignore (Token_bucket.try_take_n t.net_bw ~now b);
      true
    end
    else begin
      t.net_shed <- t.net_shed + packets;
      false
    end

let blk_admit t ~bytes_ =
  let b = float_of_int bytes_ in
  match t.blk_policy with
  | Block ->
    ignore (Token_bucket.take_n t.iops 1.0);
    ignore (Token_bucket.take_n t.blk_bw b);
    true
  | Shed ->
    let now = Sim.clock () in
    if Token_bucket.available t.iops ~now >= 1.0 && Token_bucket.available t.blk_bw ~now >= b
    then begin
      ignore (Token_bucket.try_take_n t.iops ~now 1.0);
      ignore (Token_bucket.try_take_n t.blk_bw ~now b);
      true
    end
    else begin
      t.blk_shed <- t.blk_shed + 1;
      false
    end
