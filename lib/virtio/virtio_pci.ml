type register =
  | Vendor_id
  | Device_id
  | Device_features
  | Driver_features
  | Device_status
  | Queue_select
  | Queue_size
  | Queue_addr
  | Queue_notify
  | Isr_status
  | Config of int

type kind = Net | Blk

(* Device status bits, per the virtio spec. *)
let s_acknowledge = 0x1
let s_driver = 0x2
let s_driver_ok = 0x4
let s_features_ok = 0x8
let s_failed = 0x80

(* Red Hat / virtio. *)
let vendor_id_virtio = 0x1AF4

let device_id = function Net -> 0x1000 | Blk -> 0x1001

type t = {
  kind : kind;
  num_queues : int;
  queue_size : int;
  device_features : Feature.t;
  on_access : unit -> unit;
  mutable accesses : int;
  mutable status : int;
  mutable driver_features : Feature.t;
  mutable selected_queue : int;
  queue_addrs : int array;
  mutable notify_count : int;
}

let create ~kind ~num_queues ~queue_size ~on_access =
  assert (num_queues > 0 && queue_size > 0);
  let device_features =
    match kind with Net -> Feature.default_net | Blk -> Feature.default_blk
  in
  {
    kind;
    num_queues;
    queue_size;
    device_features;
    on_access;
    accesses = 0;
    status = 0;
    driver_features = 0;
    selected_queue = 0;
    queue_addrs = Array.make num_queues 0;
    notify_count = 0;
  }

let access_count t = t.accesses

let touch t =
  t.accesses <- t.accesses + 1;
  t.on_access ()

let read t reg =
  touch t;
  match reg with
  | Vendor_id -> vendor_id_virtio
  | Device_id -> device_id t.kind
  | Device_features -> t.device_features
  | Driver_features -> t.driver_features
  | Device_status -> t.status
  | Queue_select -> t.selected_queue
  | Queue_size -> if t.selected_queue < t.num_queues then t.queue_size else 0
  | Queue_addr -> t.queue_addrs.(t.selected_queue)
  | Queue_notify -> t.notify_count
  | Isr_status -> 0
  | Config offset -> offset land 0xFF

let write t reg v =
  touch t;
  match reg with
  | Device_status ->
    if v = 0 then begin
      (* Device reset. *)
      t.status <- 0;
      t.driver_features <- 0;
      t.selected_queue <- 0;
      Array.fill t.queue_addrs 0 t.num_queues 0
    end
    else begin
      (* FEATURES_OK is only accepted when the driver subset is valid. *)
      let v =
        if v land s_features_ok <> 0 && not (Feature.contains t.device_features t.driver_features)
        then (v land lnot s_features_ok) lor s_failed
        else v
      in
      t.status <- v
    end
  | Driver_features -> t.driver_features <- v
  | Queue_select ->
    if v < 0 || v >= t.num_queues then invalid_arg "Virtio_pci: queue out of range";
    t.selected_queue <- v
  | Queue_addr -> t.queue_addrs.(t.selected_queue) <- v
  | Queue_notify -> t.notify_count <- t.notify_count + 1
  | Vendor_id | Device_id | Device_features | Queue_size | Isr_status | Config _ ->
    invalid_arg "Virtio_pci: write to read-only register"

let driver_ok t = t.status land s_driver_ok <> 0

let probe t ~driver_features =
  write t Device_status 0;
  let vendor = read t Vendor_id in
  if vendor <> vendor_id_virtio then Error (Printf.sprintf "unexpected vendor 0x%04X" vendor)
  else begin
    ignore (read t Device_id);
    write t Device_status s_acknowledge;
    write t Device_status (s_acknowledge lor s_driver);
    let offered = read t Device_features in
    let accepted = Feature.intersect offered driver_features in
    write t Driver_features accepted;
    write t Device_status (s_acknowledge lor s_driver lor s_features_ok);
    let status = read t Device_status in
    if status land s_features_ok = 0 then Error "device rejected features"
    else begin
      (* Discover and configure every queue. *)
      let sizes = ref [] in
      for q = 0 to t.num_queues - 1 do
        write t Queue_select q;
        let size = read t Queue_size in
        sizes := size :: !sizes;
        write t Queue_addr (0x100000 * (q + 1))
      done;
      write t Device_status (s_acknowledge lor s_driver lor s_features_ok lor s_driver_ok);
      match !sizes with
      | [] -> Error "no queues"
      | size :: _ -> Ok (accepted, t.num_queues, size)
    end
  end
