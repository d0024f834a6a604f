open Bm_engine

let wrap16 = 0xFFFF

(* Descriptor flags from the virtio spec. *)
let f_next = 0x1
let f_write = 0x2

(* A descriptor's buffer address and length live in its chain's
   segments (the slot's [chain_out]/[chain_in]); the table keeps only
   the flags and the free-list/chain link. *)
type desc = { mutable flags : int; mutable next : int }

type 'a chain = {
  head : int;
  out : (int * int) list;
  in_ : (int * int) list;
  payload : 'a;
}

(* One table descriptor per segment: an outstanding slot (payload
   [Some]) holds [length chain_out + length chain_in] descriptors. A
   reaped slot keeps its stale lists until the head is reused. *)
type 'a slot = {
  mutable chain_out : (int * int) list;
  mutable chain_in : (int * int) list;
  mutable chain_payload : 'a option;
}

type 'a t = {
  size : int;
  desc : desc array;
  avail : int array; (* ring of head indices *)
  used : (int * int) array; (* ring of (head, written) *)
  slots : 'a slot array; (* per-head request bookkeeping *)
  mutable avail_idx : int; (* driver-written, free-running mod 2^16 *)
  mutable used_idx : int; (* device-written *)
  mutable last_avail : int; (* device's private progress index *)
  mutable last_used : int; (* driver's private progress index *)
  mutable free_head : int; (* singly-linked free list through desc.next *)
  mutable num_free : int;
  mutable next_addr : int; (* synthetic buffer address allocator *)
  mutable requests : int; (* added but not yet reaped *)
  mutable obs : Obs.t;
  mutable track : string;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size =
  if not (is_power_of_two size && size >= 2 && size <= 32768) then
    invalid_arg "Vring.create: size must be a power of two in [2, 32768]";
  let desc = Array.init size (fun i -> { flags = 0; next = i + 1 }) in
  let slots =
    Array.init size (fun _ ->
        { chain_out = []; chain_in = []; chain_payload = None })
  in
  {
    size;
    desc;
    avail = Array.make size (-1);
    used = Array.make size (-1, 0);
    slots;
    avail_idx = 0;
    used_idx = 0;
    last_avail = 0;
    last_used = 0;
    free_head = 0;
    num_free = size;
    next_addr = 0x1000;
    requests = 0;
    obs = Obs.none;
    track = "virtio.vring";
  }

let set_obs t ~track obs =
  t.obs <- obs;
  t.track <- track

let size t = t.size
let num_free t = t.num_free

let avail_pending t = (t.avail_idx - t.last_avail) land wrap16
let used_pending t = (t.used_idx - t.last_used) land wrap16
let in_flight_requests t = t.requests
let avail_idx t = t.avail_idx
let used_idx t = t.used_idx

let alloc_addr t len =
  let a = t.next_addr in
  t.next_addr <- t.next_addr + ((len + 0xFFF) land lnot 0xFFF);
  a

(* Pop [n] descriptors off the free list, chained with F_NEXT. *)
let alloc_descs t n =
  assert (n >= 1 && n <= t.num_free);
  let head = t.free_head in
  let rec walk i prev =
    if i = n then begin
      t.free_head <- t.desc.(prev).next;
      t.desc.(prev).flags <- t.desc.(prev).flags land lnot f_next
    end
    else begin
      let cur = if i = 0 then head else t.desc.(prev).next in
      t.desc.(cur).flags <- f_next;
      walk (i + 1) cur
    end
  in
  walk 0 head;
  t.num_free <- t.num_free - n;
  head

let free_descs t head n =
  (* Walk the chain to its tail and splice it back onto the free list. *)
  let rec tail i cur = if i = n - 1 then cur else tail (i + 1) t.desc.(cur).next in
  let last = tail 0 head in
  t.desc.(last).next <- t.free_head;
  t.free_head <- head;
  t.num_free <- t.num_free + n

let add t ~out ~in_ payload =
  let nsegs = List.length out + List.length in_ in
  if nsegs = 0 then invalid_arg "Vring.add: at least one segment required";
  List.iter (fun l -> if l < 0 then invalid_arg "Vring.add: negative segment") (out @ in_);
  if nsegs > t.num_free || avail_pending t >= t.size then None
  else begin
    let head = alloc_descs t nsegs in
    let out_segs = List.map (fun len -> (alloc_addr t len, len)) out in
    let in_segs = List.map (fun len -> (alloc_addr t len, len)) in_ in
    (* Flag each table descriptor of the chain in order: driver->device
       segments first, then the device-writable ones. *)
    let rec fill cur write n =
      if n > 0 then begin
        let d = t.desc.(cur) in
        d.flags <- (d.flags land f_next) lor (if write then f_write else 0);
        fill d.next write (n - 1)
      end
      else cur
    in
    ignore (fill (fill head false (List.length out)) true (List.length in_) : int);
    let slot = t.slots.(head) in
    slot.chain_out <- out_segs;
    slot.chain_in <- in_segs;
    slot.chain_payload <- Some payload;
    t.avail.(t.avail_idx land (t.size - 1)) <- head;
    t.avail_idx <- (t.avail_idx + 1) land wrap16;
    t.requests <- t.requests + 1;
    Obs.instant t.obs ~track:t.track "add";
    Obs.add t.obs "virtio.vring.add" 1;
    Some head
  end

let chain_of_head t head =
  let slot = t.slots.(head) in
  match slot.chain_payload with
  | None -> invalid_arg "Vring: no outstanding request at this head"
  | Some payload ->
    { head; out = slot.chain_out; in_ = slot.chain_in; payload }

let peek_avail t =
  if avail_pending t = 0 then None
  else Some (chain_of_head t t.avail.(t.last_avail land (t.size - 1)))

let pop_avail t =
  match peek_avail t with
  | None -> None
  | Some chain ->
    t.last_avail <- (t.last_avail + 1) land wrap16;
    Some chain

let payload t ~head =
  match t.slots.(head).chain_payload with
  | None -> invalid_arg "Vring.payload: head not outstanding"
  | Some p -> p

let set_payload t ~head payload =
  let slot = t.slots.(head) in
  match slot.chain_payload with
  | None -> invalid_arg "Vring.set_payload: head not outstanding"
  | Some _ -> slot.chain_payload <- Some payload

let push_used t ~head ~written =
  let slot = t.slots.(head) in
  (match slot.chain_payload with
  | None -> invalid_arg "Vring.push_used: head not outstanding"
  | Some _ -> ());
  t.used.(t.used_idx land (t.size - 1)) <- (head, written);
  t.used_idx <- (t.used_idx + 1) land wrap16;
  Obs.instant t.obs ~track:t.track "used";
  Obs.add t.obs "virtio.vring.used" 1

let pop_used t =
  if used_pending t = 0 then None
  else begin
    let head, written = t.used.(t.last_used land (t.size - 1)) in
    t.last_used <- (t.last_used + 1) land wrap16;
    let slot = t.slots.(head) in
    match slot.chain_payload with
    | None -> invalid_arg "Vring.pop_used: corrupted used entry"
    | Some payload ->
      slot.chain_payload <- None;
      free_descs t head (List.length slot.chain_out + List.length slot.chain_in);
      t.requests <- t.requests - 1;
      Some (payload, written)
  end

let total_out_bytes chain = List.fold_left (fun acc (_, len) -> acc + len) 0 chain.out
let total_in_bytes chain = List.fold_left (fun acc (_, len) -> acc + len) 0 chain.in_

let check_invariants t =
  let outstanding =
    Array.fold_left
      (fun acc s ->
        match s.chain_payload with
        | Some _ -> acc + List.length s.chain_out + List.length s.chain_in
        | None -> acc)
      0 t.slots
  in
  (* Count the free list. *)
  let rec count cur n =
    if n > t.size then Error "free list cycle"
    else if n = t.num_free then Ok n
    else count t.desc.(cur).next (n + 1)
  in
  match count t.free_head 0 with
  | Error e -> Error e
  | Ok free ->
    if free + outstanding <> t.size then
      Error
        (Printf.sprintf "descriptor leak: free=%d outstanding=%d size=%d" free outstanding t.size)
    else if avail_pending t > t.size then Error "avail overflow"
    else if used_pending t > t.size then Error "used overflow"
    else Ok ()
