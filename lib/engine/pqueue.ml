(* Binary min-heap on (time, seq) keys with stable payload slots.

   The heap itself is three flat arrays indexed by heap position:
   [times] (an unboxed float array), [seqs] and [slots] (int arrays).
   Payloads never move: each entry owns a slot of [values] for its whole
   life, and the heap carries only the slot's index. Sifting therefore
   touches nothing but immediates and flat floats, so no level of a sift
   goes through the write barrier; a push stores its payload once and a
   pop nulls it once. Sifts move a hole rather than swapping, one store
   per array per level.

   [slots] is a permutation of every slot index: positions [0, size)
   hold the live entries' slots, positions [size, capacity) the free
   ones. A push takes the free slot already sitting at position [size];
   a pop or removal parks the freed slot just past the new size. [where]
   is the inverse map, slot -> position, which is what lets {!remove}
   find an entry by slot in O(1). Growth doubles all five arrays at once;
   the amortized cost is unchanged. *)

type cell = { mutable at : float }

type 'a t = {
  mutable times : float array;  (* flat (Double_array_tag): no boxing *)
  mutable seqs : int array;
  mutable slots : int array;  (* position -> slot *)
  mutable where : int array;  (* slot -> position *)
  mutable values : Obj.t array;  (* slot -> payload, uniform representation, see below *)
  mutable size : int;
}

(* Payloads are stored as [Obj.t] so vacated slots can be nulled with a
   shared immediate (the unit value) without manufacturing a dummy 'a,
   and so a ['a = float] instantiation cannot flip the array to the
   flat float representation behind the generic accessors. The magic is
   confined to [push]/[take]: everything enters through Obj.repr and
   leaves through Obj.obj at the same type. *)
let nil = Obj.repr ()

let create () =
  { times = [||]; seqs = [||]; slots = [||]; where = [||]; values = [||]; size = 0 }

let length q = q.size
let is_empty q = q.size = 0
let capacity q = Array.length q.times

let grow q =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let times' = Array.make capacity' 0.0 in
    let seqs' = Array.make capacity' 0 in
    (* The new positions hold the new, free slots: identity on the
       extension keeps [slots] a permutation and [where] its inverse. *)
    let slots' = Array.init capacity' Fun.id in
    let where' = Array.init capacity' Fun.id in
    let values' = Array.make capacity' nil in
    Array.blit q.times 0 times' 0 capacity;
    Array.blit q.seqs 0 seqs' 0 capacity;
    Array.blit q.slots 0 slots' 0 capacity;
    Array.blit q.where 0 where' 0 capacity;
    Array.blit q.values 0 values' 0 capacity;
    q.times <- times';
    q.seqs <- seqs';
    q.slots <- slots';
    q.where <- where';
    q.values <- values'
  end

(* Moves the entry at position [src] to position [dst]. *)
let[@inline] move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.seqs.(dst) <- q.seqs.(src);
  let s = q.slots.(src) in
  q.slots.(dst) <- s;
  q.where.(s) <- dst

(* Sift the entry at position [i] towards the root. Its key is read
   into locals once; each level moves one parent down into the hole. *)
let sift_up q i =
  let t = q.times.(i) and s = q.seqs.(i) and slot = q.slots.(i) in
  let i = ref i in
  let climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = q.times.(p) in
    if t < tp || (t = tp && s < q.seqs.(p)) then begin
      move q ~src:p ~dst:!i;
      i := p
    end
    else climbing := false
  done;
  q.times.(!i) <- t;
  q.seqs.(!i) <- s;
  q.slots.(!i) <- slot;
  q.where.(slot) <- !i

(* Fill the hole at position [hole] with the entry at position [src]
   (which lies at or past the live size), sifting it down. *)
let sift_down q ~hole ~src =
  let t = q.times.(src) and s = q.seqs.(src) and slot = q.slots.(src) in
  let n = q.size in
  let i = ref hole in
  let sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let tl = q.times.(l) and tr = q.times.(r) in
          if tr < tl || (tr = tl && q.seqs.(r) < q.seqs.(l)) then r else l
        end
        else l
      in
      let tc = q.times.(c) in
      if tc < t || (tc = t && q.seqs.(c) < s) then begin
        move q ~src:c ~dst:!i;
        i := c
      end
      else sinking := false
    end
  done;
  q.times.(!i) <- t;
  q.seqs.(!i) <- s;
  q.slots.(!i) <- slot;
  q.where.(slot) <- !i

(* Append at position [size] (whose free slot becomes the entry's),
   with the time already written by the caller, then sift up. *)
let[@inline] append q ~seq value =
  let i = q.size in
  let slot = q.slots.(i) in
  q.seqs.(i) <- seq;
  q.values.(slot) <- Obj.repr value;
  q.size <- i + 1;
  sift_up q i;
  slot

let push q cell ~seq value =
  grow q;
  q.times.(q.size) <- cell.at;
  append q ~seq value

let add q ~time ~seq value =
  grow q;
  q.times.(q.size) <- time;
  ignore (append q ~seq value)

(* Remove the entry at position [i] and return its payload: the last
   entry fills the hole (sifting whichever way its key needs), and the
   freed slot is parked at the old last position. *)
let take q i =
  let slot = q.slots.(i) in
  let v = q.values.(slot) in
  (* Null the slot so the GC can reclaim the payload (fibers retained
     through popped closures were a genuine space leak). *)
  q.values.(slot) <- nil;
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    let p = (i - 1) / 2 in
    let tl = q.times.(last) and tp = q.times.(p) in
    if i > 0 && (tl < tp || (tl = tp && q.seqs.(last) < q.seqs.(p))) then begin
      move q ~src:last ~dst:i;
      sift_up q i
    end
    else sift_down q ~hole:i ~src:last
  end;
  q.slots.(last) <- slot;
  q.where.(slot) <- last;
  Obj.obj v

(* {2 Zero-allocation run-loop accessors}

   The simulator's inner loop never materializes a (time, seq, value)
   tuple, and no float crosses into or out of this module boxed on it:
   keys enter through a {!cell} ({!push}), the pop guard compares
   against one ({!min_le_cell}) and {!pop_into} writes the popped time
   into one. All are undefined on an empty queue — the caller checks
   [length] first. *)

let min_le q ~time ~seq =
  let t0 = q.times.(0) in
  t0 < time || (t0 = time && q.seqs.(0) <= seq)

let min_le_cell q cell ~seq =
  let t0 = q.times.(0) and time = cell.at in
  t0 < time || (t0 = time && q.seqs.(0) <= seq)

let pop_into q cell =
  cell.at <- q.times.(0);
  take q 0

let remove q ~slot ~seq =
  if slot < 0 || slot >= Array.length q.where then false
  else begin
    let i = q.where.(slot) in
    (* A live entry sits below [size]; the seq tells it from a newer
       entry that has since taken the same slot. *)
    if i < q.size && q.seqs.(i) = seq then begin
      ignore (take q i);
      true
    end
    else false
  end

(* {2 Boxed convenience API} — model tests and non-hot-path callers. *)

let peek q =
  if q.size = 0 then None
  else Some (q.times.(0), q.seqs.(0), (Obj.obj q.values.(q.slots.(0)) : 'a))

let pop q =
  if q.size = 0 then None
  else begin
    let time = q.times.(0) and seq = q.seqs.(0) in
    let v = take q 0 in
    Some (time, seq, v)
  end

let clear q =
  (* Keep the backing arrays (steady-state simulations re-fill them at
     the same size), but drop every payload reference held in them.
     Every slot stays where it is, now on the free side of [size]. *)
  for i = 0 to q.size - 1 do
    q.values.(q.slots.(i)) <- nil
  done;
  q.size <- 0
