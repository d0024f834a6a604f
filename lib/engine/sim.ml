exception Not_in_simulation

type t = {
  (* The clock and the scratch key of the next heap push are one-float
     records, which OCaml stores flat: writing either never allocates,
     where a [mutable time : float] field of this record would box every
     store. *)
  clock : Pqueue.cell;
  key : Pqueue.cell;
  mutable seq : int;
  agenda : (unit -> unit) Pqueue.t;
  (* Hot lane: zero-delay events (every Fork, Suspend resume, spawn and
     Bounded wakeup) run at the current time, so they never need the
     heap — a FIFO preserves their (time, seq) order exactly. The seq
     counter stays global across both lanes, so interleaving with heap
     events at the same timestamp is bit-identical to the all-heap
     scheduler.

     The lane is a growable power-of-two ring over two parallel arrays
     (seq, callback) rather than a [Queue.t] of boxed pairs: pushing a
     zero-delay event — the majority of all events in I/O-heavy runs —
     allocates nothing. Popped slots are nulled so finished fibers stay
     collectable. *)
  mutable lane_seqs : int array;
  mutable lane_fns : (unit -> unit) array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable lane_executed : int;
  mutable heap_executed : int;
  mutable executed : int;
  (* The one effect handler every fiber of this simulator runs under. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Await : (('a -> unit) -> unit) -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t

(* Shared filler for vacated lane slots: retains nothing. *)
let lane_nil () = ()

let now t = t.clock.at
let events_executed t = t.executed
let pending_events t = Pqueue.length t.agenda + t.lane_len

type stats = {
  executed : int;
  lane : int;
  heap : int;
  pending_lane : int;
  pending_heap : int;
  lane_capacity : int;
  heap_capacity : int;
}

let stats (t : t) =
  {
    executed = t.executed;
    lane = t.lane_executed;
    heap = t.heap_executed;
    pending_lane = t.lane_len;
    pending_heap = Pqueue.length t.agenda;
    lane_capacity = Array.length t.lane_fns;
    heap_capacity = Pqueue.capacity t.agenda;
  }

let lane_grow t =
  let cap = Array.length t.lane_fns in
  let cap' = max 16 (2 * cap) in
  let seqs' = Array.make cap' 0 in
  let fns' = Array.make cap' lane_nil in
  for k = 0 to t.lane_len - 1 do
    let i = (t.lane_head + k) land (cap - 1) in
    seqs'.(k) <- t.lane_seqs.(i);
    fns'.(k) <- t.lane_fns.(i)
  done;
  t.lane_seqs <- seqs';
  t.lane_fns <- fns';
  t.lane_head <- 0

let[@inline] lane_push t seq f =
  if t.lane_len = Array.length t.lane_fns then lane_grow t;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_fns - 1) in
  t.lane_seqs.(i) <- seq;
  t.lane_fns.(i) <- f;
  t.lane_len <- t.lane_len + 1

let[@inline] lane_pop t =
  let i = t.lane_head in
  let f = t.lane_fns.(i) in
  t.lane_fns.(i) <- lane_nil;
  t.lane_head <- (i + 1) land (Array.length t.lane_fns - 1);
  t.lane_len <- t.lane_len - 1;
  f

let schedule t ~delay f =
  (* An explicit raise, not an assert: the guard must survive builds
     that compile assertions out (matches the Delay effect's behavior).
     The negated comparison also rejects a NaN delay. *)
  if not (delay >= 0.0) then invalid_arg "Sim.schedule: delay must be non-negative";
  t.seq <- t.seq + 1;
  if delay = 0.0 then lane_push t t.seq f
  else begin
    t.key.at <- t.clock.at +. delay;
    ignore (Pqueue.push t.agenda t.key ~seq:t.seq f)
  end

type timer = { timer_slot : int; timer_seq : int }

(* Cancellable events always take the heap, even at zero delay: only
   heap entries can be found again by slot. A zero-delay one still runs
   in (time, seq) order, because the run loop interleaves the lane with
   heap events at the current instant by seq. *)
let schedule_cancellable t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg "Sim.schedule_cancellable: delay must be non-negative";
  t.seq <- t.seq + 1;
  t.key.at <- t.clock.at +. delay;
  { timer_slot = Pqueue.push t.agenda t.key ~seq:t.seq f; timer_seq = t.seq }

let cancel t { timer_slot; timer_seq } =
  ignore (Pqueue.remove t.agenda ~slot:timer_slot ~seq:timer_seq)

(* Run [body] as a fiber, interpreting the blocking effects against [t]. *)
let rec exec t body = Effect.Deep.match_with body () t.handler

(* Built once per simulator by [create], not once per fiber. *)
and handler t =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Delay d ->
          Some
            (fun (k : (a, unit) continuation) ->
              if d < 0.0 then discontinue k (Invalid_argument "Sim.delay: negative")
              else schedule t ~delay:d (fun () -> continue k ()))
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              let resumed = ref false in
              let resume v =
                if !resumed then invalid_arg "Sim.suspend: resumed twice";
                resumed := true;
                schedule t ~delay:0.0 (fun () -> continue k v)
              in
              register resume)
        | Await register ->
          Some
            (fun (k : (a, unit) continuation) ->
              let resumed = ref false in
              register (fun v ->
                  if !resumed then invalid_arg "Sim.await: resumed twice";
                  resumed := true;
                  continue k v))
        | Fork body' ->
          Some
            (fun (k : (a, unit) continuation) ->
              schedule t ~delay:0.0 (fun () -> exec t body');
              continue k ())
        | _ -> None);
  }

let create () =
  let t =
    {
      clock = { Pqueue.at = 0.0 };
      key = { Pqueue.at = 0.0 };
      seq = 0;
      agenda = Pqueue.create ();
      lane_seqs = [||];
      lane_fns = [||];
      lane_head = 0;
      lane_len = 0;
      lane_executed = 0;
      heap_executed = 0;
      executed = 0;
      handler = { retc = Fun.id; exnc = raise; effc = (fun _ -> None) };
    }
  in
  t.handler <- handler t;
  t

let spawn t body = schedule t ~delay:0.0 (fun () -> exec t body)

(* The simulator whose loop runs on this domain, which is what {!clock}
   reads: a domain-local pointer instead of an effect round trip, so
   plain callbacks see the clock too. [idle] (never run) means none. A
   loop restores the pointer it found on exit, so a simulator run from
   inside another's callback hands the clock back, and experiments run
   on several domains at once each see their own simulator. *)
let idle = create ()
let running = Domain.DLS.new_key (fun () -> idle)

(* The shared inner loop. Every pending hot-lane event runs at the
   current time (zero-delay scheduling can only target "now", and the
   lane always drains before the clock advances), so the next event is
   either the lane's head or a heap event at the same instant with a
   smaller seq. Heap events pop while their time is <= horizon. No step
   of the loop allocates: the clock is written in place through its
   flat cell. *)
let exec_loop t ~horizon =
  let rec loop () =
    if t.lane_len > 0 then begin
      let lane_seq = t.lane_seqs.(t.lane_head) in
      if Pqueue.length t.agenda > 0 && Pqueue.min_le_cell t.agenda t.clock ~seq:lane_seq
      then begin
        let f = Pqueue.pop_into t.agenda t.clock in
        t.heap_executed <- t.heap_executed + 1;
        t.executed <- t.executed + 1;
        f ()
      end
      else begin
        let f = lane_pop t in
        t.lane_executed <- t.lane_executed + 1;
        t.executed <- t.executed + 1;
        f ()
      end;
      loop ()
    end
    else if Pqueue.length t.agenda > 0 && Pqueue.min_le t.agenda ~time:horizon ~seq:max_int
    then begin
      let f = Pqueue.pop_into t.agenda t.clock in
      t.heap_executed <- t.heap_executed + 1;
      t.executed <- t.executed + 1;
      f ();
      loop ()
    end
  in
  let outer = Domain.DLS.get running in
  Domain.DLS.set running t;
  match loop () with
  | () -> Domain.DLS.set running outer
  | exception e ->
    Domain.DLS.set running outer;
    raise e

let run ?until t =
  let horizon = match until with Some u -> u | None -> infinity in
  exec_loop t ~horizon;
  match until with Some u when t.clock.at < u -> t.clock.at <- u | _ -> ()

let delay d =
  try Effect.perform (Delay d) with Effect.Unhandled _ -> raise Not_in_simulation

let current () =
  let t = Domain.DLS.get running in
  if t == idle then raise Not_in_simulation else t

let clock () = (current ()).clock.at

let suspend register =
  try Effect.perform (Suspend register) with Effect.Unhandled _ -> raise Not_in_simulation

(* The fiber side of a callback chain: the chain's last step calls the
   continuation, which resumes the fiber inline, inside that step's
   event — the event a fiber running the same steps itself would have
   resumed in — so awaiting a chain adds no event and moves no key. *)
let await register =
  try Effect.perform (Await register) with Effect.Unhandled _ -> raise Not_in_simulation

let fork body =
  try Effect.perform (Fork body) with Effect.Unhandled _ -> raise Not_in_simulation

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let fill iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      iv.state <- Full v;
      List.iter (fun resume -> resume v) (List.rev waiters)

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.state with
          | Full v -> resume v
          | Empty waiters -> iv.state <- Empty (resume :: waiters))

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
end

module Bounded = struct
  type policy = Block | Drop_tail | Reject

  type probe_event = [ `Enqueue | `Deliver | `Drop | `Reject ]

  (* The callback slot: [Free]; [Parked] holds a lone recv_callback
     receiver; [Handoff] holds it and the item a send handed it until
     the queue's [wake] event runs. *)
  type slot = Free | Parked | Handoff

  type 'a bounded = {
    capacity : int;
    policy : policy;
    (* Queued items: a growable power-of-two ring, [len] of them from
       [head]. Items are stored as [Obj.t], as in {!Pqueue}: vacated
       cells are nulled with a shared immediate, so a taken item is
       never retained, and an ['a = float] queue cannot flip the array
       to the flat float representation. *)
    mutable ring : Obj.t array;
    mutable head : int;
    mutable len : int;
    (* Parked receivers that found the slot taken; all of them parked
       after the slot's receiver. *)
    receivers : ('a -> unit) Queue.t;
    mutable slot : slot;
    mutable slot_fn : 'a -> unit;
    mutable slot_item : Obj.t;
    mutable slot_sim : t;
    wake : unit -> unit;  (* built once: runs the slot's handoff *)
    (* Senders parked under [Block]; their value is not yet queued. *)
    parked : ('a * (unit -> unit)) Queue.t;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable rejected : int;
    mutable probe : (probe_event -> depth:int -> unit) option;
  }

  let nil = Obj.repr ()

  (* Clear the slot before calling its receiver, so the receiver can
     park again at once. *)
  let wake_slot q =
    let f = q.slot_fn and v = q.slot_item in
    q.slot <- Free;
    q.slot_fn <- ignore;
    q.slot_item <- nil;
    f (Obj.obj v)

  let create ~capacity ~policy () =
    if capacity <= 0 then invalid_arg "Sim.Bounded.create: capacity must be positive";
    let rec q =
      {
        capacity;
        policy;
        ring = [||];
        head = 0;
        len = 0;
        receivers = Queue.create ();
        slot = Free;
        slot_fn = ignore;
        slot_item = nil;
        slot_sim = idle;
        wake = (fun () -> wake_slot q);
        parked = Queue.create ();
        sent = 0;
        delivered = 0;
        rejected = 0;
        dropped = 0;
        probe = None;
      }
    in
    q

  let length q = q.len
  let sent q = q.sent
  let delivered q = q.delivered
  let dropped q = q.dropped
  let rejected q = q.rejected
  let waiting_senders q = Queue.length q.parked
  let set_probe q f = q.probe <- Some f

  let note q ev = match q.probe with None -> () | Some f -> f ev ~depth:q.len

  let grow q =
    let cap = Array.length q.ring in
    let ring' = Array.make (max 2 (2 * cap)) nil in
    for k = 0 to q.len - 1 do
      ring'.(k) <- q.ring.((q.head + k) land (cap - 1))
    done;
    q.ring <- ring';
    q.head <- 0

  let push q v =
    if q.len = Array.length q.ring then grow q;
    q.ring.((q.head + q.len) land (Array.length q.ring - 1)) <- Obj.repr v;
    q.len <- q.len + 1

  let pop q =
    let i = q.head in
    let v = q.ring.(i) in
    q.ring.(i) <- nil;
    q.head <- (i + 1) land (Array.length q.ring - 1);
    q.len <- q.len - 1;
    Obj.obj v

  let enqueue q v =
    push q v;
    note q `Enqueue

  let note_delivered q =
    q.delivered <- q.delivered + 1;
    note q `Deliver

  let send q v =
    q.sent <- q.sent + 1;
    if q.slot = Parked then begin
      (* Direct handoff to the oldest receiver, the slot's: one
         zero-delay event, the one a parked fiber's resume takes. *)
      note_delivered q;
      q.slot <- Handoff;
      q.slot_item <- Obj.repr v;
      schedule q.slot_sim ~delay:0.0 q.wake;
      `Sent
    end
    else if not (Queue.is_empty q.receivers) then begin
      (* Direct handoff: a receiver is parked, so the queue is empty. *)
      let resume = Queue.take q.receivers in
      note_delivered q;
      resume v;
      `Sent
    end
    else if q.len < q.capacity then begin
      enqueue q v;
      `Sent
    end
    else begin
      match q.policy with
      | Block ->
        (* Backpressure: park until a receiver makes room. The
           transfer (enqueue) happens on the receiver side so FIFO
           order is preserved. *)
        suspend (fun resume -> Queue.add (v, fun () -> resume ()) q.parked);
        `Sent
      | Drop_tail ->
        q.dropped <- q.dropped + 1;
        note q `Drop;
        `Dropped
      | Reject ->
        q.rejected <- q.rejected + 1;
        note q `Reject;
        `Rejected
    end

  (* [send] for callback senders: only a Block-policy send into a full
     queue (which no receiver waits on) parks, and then the wake-up is
     the zero-delay event a parked fiber's resume takes. *)
  let send_callback t q v k =
    if q.policy = Block && q.len >= q.capacity then begin
      q.sent <- q.sent + 1;
      Queue.add (v, fun () -> schedule t ~delay:0.0 (fun () -> k `Sent)) q.parked
    end
    else k (send q v)

  (* After room frees, move the oldest parked sender's item in and wake it. *)
  let unpark q =
    if not (Queue.is_empty q.parked) then begin
      let v, wake = Queue.take q.parked in
      enqueue q v;
      wake ()
    end

  (* Take the head item, then let the oldest parked sender into the
     room it freed. *)
  let take q =
    let v = pop q in
    note_delivered q;
    unpark q;
    v

  (* A lone parked callback waits in the slot, which allocates nothing;
     it is only taken when no receiver is parked and no handoff is
     pending, so receivers are still served in the order they parked.
     Otherwise the callback queues like a fiber's resume, with the same
     zero-delay event at the sender's instant. *)
  let recv_callback t q f =
    if q.len > 0 then f (take q)
    else if q.slot = Free && Queue.is_empty q.receivers then begin
      q.slot <- Parked;
      q.slot_fn <- f;
      if q.slot_sim != t then q.slot_sim <- t
    end
    else Queue.add (fun v -> schedule t ~delay:0.0 (fun () -> f v)) q.receivers
end

module Resource = struct
  (* Waiters hold their resume: every request is for one unit. *)
  type resource = { capacity : int; mutable used : int; queue : (unit -> unit) Queue.t }

  let create ~capacity =
    assert (capacity > 0);
    { capacity; used = 0; queue = Queue.create () }

  let in_use r = r.used
  let waiting r = Queue.length r.queue

  (* Grant waiters strictly in FIFO order while units are free. *)
  let rec grant r =
    if r.used < r.capacity && not (Queue.is_empty r.queue) then begin
      r.used <- r.used + 1;
      Queue.pop r.queue ();
      grant r
    end

  (* A unit is only free while nobody waits: [grant] hands every freed
     unit to the oldest waiter, so a newcomer cannot barge. *)
  let acquire r =
    if r.used < r.capacity then r.used <- r.used + 1
    else suspend (fun resume -> Queue.add (fun () -> resume ()) r.queue)

  (* A parked callback's grant schedules it as one zero-delay event, the
     event a parked fiber's resume takes. *)
  let acquire_callback t r f =
    if r.used < r.capacity then begin
      r.used <- r.used + 1;
      f ()
    end
    else Queue.add (fun () -> schedule t ~delay:0.0 f) r.queue

  let release r =
    r.used <- r.used - 1;
    assert (r.used >= 0);
    grant r

  let with_resource r f =
    acquire r;
    match f () with
    | v ->
      release r;
      v
    | exception e ->
      release r;
      raise e
end
