open Bm_engine

type op = Read | Write | Flush

type req = {
  op : op;
  sector : int;
  bytes : int;
  submitted_at : float;
  mutable failed : bool;
  done_ : float Sim.Ivar.ivar;
}

let header_bytes = 16
let status_bytes = 1

type t = {
  pci : Virtio_pci.t;
  ring : req Vring.t;
  mutable notify : unit -> unit;
  mutable interrupt : unit -> unit;
  mutable submitted : int;
  mutable completed : int;
  obs : Obs.t;
}

(* virtio-blk's classic queue depth. *)
let queue_size = 128

let create ?(obs = Obs.none) ~on_access () =
  let ring = Vring.create ~size:queue_size in
  Vring.set_obs ring ~track:"virtio.blk" obs;
  {
    pci = Virtio_pci.create ~kind:Virtio_pci.Blk ~num_queues:1 ~queue_size ~on_access;
    ring;
    notify = ignore;
    interrupt = ignore;
    submitted = 0;
    completed = 0;
    obs;
  }

let pci t = t.pci
let ring t = t.ring
let set_notify t f = t.notify <- f
let set_interrupt t f = t.interrupt <- f
let fire_interrupt t = t.interrupt ()

let probe t =
  match Virtio_pci.probe t.pci ~driver_features:Feature.default_blk with
  | Ok _ -> Ok ()
  | Error e -> Error e

let make_req ~op ~sector ~bytes ~now =
  assert (bytes >= 0);
  { op; sector; bytes; submitted_at = now; failed = false; done_ = Sim.Ivar.create () }

let submit t req =
  let out, in_ =
    match req.op with
    | Read -> ([ header_bytes ], [ req.bytes; status_bytes ])
    | Write -> ([ header_bytes; req.bytes ], [ status_bytes ])
    | Flush -> ([ header_bytes ], [ status_bytes ])
  in
  match Vring.add t.ring ~out ~in_ req with
  | Some _ ->
    t.submitted <- t.submitted + 1;
    Obs.instant t.obs ~track:"virtio.blk" "kick";
    Obs.add t.obs "virtio.blk.submitted" 1;
    t.notify ();
    true
  | None -> false

let reap t =
  let rec go n =
    match Vring.pop_used t.ring with
    | Some (req, _written) ->
      t.completed <- t.completed + 1;
      Sim.Ivar.fill req.done_ (Sim.clock ());
      go (n + 1)
    | None -> n
  in
  let n = go 0 in
  if n > 0 then begin
    Obs.instant t.obs ~track:"virtio.blk" "reap";
    Obs.mark t.obs ~n "virtio.blk.reaped"
  end;
  n
