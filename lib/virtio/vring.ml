open Bm_engine

let wrap16 = 0xFFFF

(* Descriptor flags from the virtio spec. *)
let f_next = 0x1
let f_write = 0x2

(* Every part of the ring is a flat array, so a ring that lives across
   minor collections holds no young blocks but its payloads. A head is
   outstanding while [ndesc.(head)], its chain's descriptor count, is
   not 0. Payloads are [Obj.t], as in {!Pqueue}: a reaped cell is nulled
   with an immediate, and a float payload cannot flip the array to the
   flat float representation; they enter through [Obj.repr] and leave
   through [Obj.obj] at the same type. *)
type 'a t = {
  size : int;
  len : int array; (* per descriptor *)
  flags : int array;
  next : int array; (* the free list's link while free, F_NEXT's while chained *)
  avail : int array; (* ring of head indices *)
  used_head : int array; (* the used ring: head ... *)
  used_written : int array; (* ... and bytes written *)
  payloads : Obj.t array; (* per head *)
  ndesc : int array; (* per head: its chain's descriptors, 0 when not outstanding *)
  mutable avail_idx : int; (* driver-written, free-running mod 2^16 *)
  mutable used_idx : int; (* device-written *)
  mutable last_avail : int; (* device's private progress index *)
  mutable last_used : int; (* driver's private progress index *)
  mutable free_head : int; (* singly-linked free list through [next] *)
  mutable num_free : int;
  mutable requests : int; (* added but not yet reaped *)
  mutable obs : Obs.t;
  mutable track : string;
}

let nil = Obj.repr ()

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size =
  if not (is_power_of_two size && size >= 2 && size <= 32768) then
    invalid_arg "Vring.create: size must be a power of two in [2, 32768]";
  {
    size;
    len = Array.make size 0;
    flags = Array.make size 0;
    next = Array.init size (fun i -> i + 1);
    avail = Array.make size (-1);
    used_head = Array.make size (-1);
    used_written = Array.make size 0;
    payloads = Array.make size nil;
    ndesc = Array.make size 0;
    avail_idx = 0;
    used_idx = 0;
    last_avail = 0;
    last_used = 0;
    free_head = 0;
    num_free = size;
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

let check_len l = if l < 0 then invalid_arg "Vring.add: negative segment"

(* Take one descriptor per length in [lens] off the free list, in
   free-list order, so the free list's links become the chain's.
   Returns the last one taken, or [last] for no lengths. *)
let rec take t last write = function
  | [] -> last
  | l :: rest ->
    let d = t.free_head in
    t.free_head <- t.next.(d);
    t.len.(d) <- l;
    t.flags.(d) <- f_next lor write;
    take t d write rest

(* The same for a copy of [src]'s chain from its descriptor [s] on,
   flags included: the copy ends where the source does. *)
let rec take_like t src s =
  let d = t.free_head in
  t.free_head <- t.next.(d);
  t.len.(d) <- src.len.(s);
  t.flags.(d) <- src.flags.(s);
  if src.flags.(s) land f_next <> 0 then take_like t src src.next.(s)

(* Publish the chain of [n] descriptors just taken at [head]. *)
let publish t head n payload =
  t.num_free <- t.num_free - n;
  t.ndesc.(head) <- n;
  t.payloads.(head) <- Obj.repr payload;
  t.avail.(t.avail_idx land (t.size - 1)) <- head;
  t.avail_idx <- (t.avail_idx + 1) land wrap16;
  t.requests <- t.requests + 1;
  Obs.instant t.obs ~track:t.track "add";
  Obs.add t.obs "virtio.vring.add" 1;
  Some head

let fits t n = n <= t.num_free && avail_pending t < t.size

let add t ~out ~in_ payload =
  let n = List.length out + List.length in_ in
  if n = 0 then invalid_arg "Vring.add: at least one segment required";
  List.iter check_len out;
  List.iter check_len in_;
  if not (fits t n) then None
  else begin
    let head = t.free_head in
    (* Driver->device descriptors first; the last clears F_NEXT. *)
    let last = take t (take t (-1) 0 out) f_write in_ in
    t.flags.(last) <- t.flags.(last) land lnot f_next;
    publish t head n payload
  end

let outstanding t ~head what =
  if t.ndesc.(head) = 0 then invalid_arg ("Vring." ^ what ^ ": head not outstanding")

let add_like t ~src ~head payload =
  outstanding src ~head "add_like";
  let n = src.ndesc.(head) in
  if not (fits t n) then None
  else begin
    let mirror = t.free_head in
    take_like t src head;
    publish t mirror n payload
  end

let rec same_chain t d src s =
  t.len.(d) = src.len.(s)
  && t.flags.(d) = src.flags.(s)
  && (t.flags.(d) land f_next = 0 || same_chain t t.next.(d) src src.next.(s))

let mirrors t ~head ~src ~src_head =
  t.ndesc.(head) > 0 && t.ndesc.(head) = src.ndesc.(src_head) && same_chain t head src src_head

let pop_avail t =
  if avail_pending t = 0 then None
  else begin
    let head = t.avail.(t.last_avail land (t.size - 1)) in
    if t.ndesc.(head) = 0 then invalid_arg "Vring: no outstanding request at this head";
    t.last_avail <- (t.last_avail + 1) land wrap16;
    Some head
  end

let payload t ~head =
  outstanding t ~head "payload";
  Obj.obj t.payloads.(head)

let set_payload t ~head payload =
  outstanding t ~head "set_payload";
  t.payloads.(head) <- Obj.repr payload

(* Walk a chain along F_NEXT, as a device does: the lengths whose
   F_WRITE flag is [write], or with [write] = -1 the descriptor count.
   A chain longer than the ring loops, as a device would also find. *)
let rec walk t d write acc n =
  if n > t.size then invalid_arg "Vring: descriptor chain loops";
  let acc =
    if write < 0 then n else if t.flags.(d) land f_write = write then acc + t.len.(d) else acc
  in
  if t.flags.(d) land f_next <> 0 then walk t t.next.(d) write acc (n + 1) else acc

let out_bytes t ~head =
  outstanding t ~head "out_bytes";
  walk t head 0 0 1

let in_bytes t ~head =
  outstanding t ~head "in_bytes";
  walk t head f_write 0 1

let descriptors t ~head =
  outstanding t ~head "descriptors";
  walk t head (-1) 0 1

let push_used t ~head ~written =
  outstanding t ~head "push_used";
  let i = t.used_idx land (t.size - 1) in
  t.used_head.(i) <- head;
  t.used_written.(i) <- written;
  t.used_idx <- (t.used_idx + 1) land wrap16;
  Obs.instant t.obs ~track:t.track "used";
  Obs.add t.obs "virtio.vring.used" 1

let next_used t = if used_pending t = 0 then -1 else t.used_head.(t.last_used land (t.size - 1))

let rec nth_desc t d i = if i = 0 then d else nth_desc t t.next.(d) (i - 1)

let pop_used t =
  if used_pending t = 0 then None
  else begin
    let i = t.last_used land (t.size - 1) in
    let head = t.used_head.(i) and written = t.used_written.(i) in
    t.last_used <- (t.last_used + 1) land wrap16;
    let n = t.ndesc.(head) in
    if n = 0 then invalid_arg "Vring.pop_used: corrupted used entry";
    let payload = t.payloads.(head) in
    t.payloads.(head) <- nil;
    t.ndesc.(head) <- 0;
    (* Splice the chain back onto the free list. *)
    t.next.(nth_desc t head (n - 1)) <- t.free_head;
    t.free_head <- head;
    t.num_free <- t.num_free + n;
    t.requests <- t.requests - 1;
    Some (Obj.obj payload, written)
  end

let check_invariants t =
  let outstanding = Array.fold_left ( + ) 0 t.ndesc in
  (* An outstanding chain's F_NEXT links end at its count. *)
  let rec heads_ok h =
    h = t.size || ((t.ndesc.(h) = 0 || walk t h (-1) 0 1 = t.ndesc.(h)) && heads_ok (h + 1))
  in
  (* Count the free list. *)
  let rec count cur n =
    if n > t.size then Error "free list cycle"
    else if n = t.num_free then Ok n
    else count t.next.(cur) (n + 1)
  in
  match count t.free_head 0 with
  | Error e -> Error e
  | Ok free ->
    if free + outstanding <> t.size then
      Error
        (Printf.sprintf "descriptor leak: free=%d outstanding=%d size=%d" free outstanding t.size)
    else if not (heads_ok 0) then Error "F_NEXT links disagree with a descriptor count"
    else if avail_pending t > t.size then Error "avail overflow"
    else if used_pending t > t.size then Error "used overflow"
    else Ok ()
