(* Conservative parallel discrete-event simulation over [Sim.t] shards.

   The protocol is the synchronous conservative window scheme (YAWNS /
   CMB without null messages): every round,

     t_min = min over shards of next pending event time
     L     = min over conduits of lookahead
     w     = t_min + L

   and each shard executes its events with time < w — in parallel on up
   to [domains] OCaml domains, since within a window the shards share
   nothing. Any cross-shard message sent by an event in the window has
   arrival >= send_time + lookahead >= t_min + L = w, so it can only
   affect events at or after the window boundary: running the window
   concurrently is exact, not approximate. Messages buffer in per-shard
   outboxes during the window; the barrier merges them in (arrival,
   src_shard, src_seq) order — a total order, since src_seq is unique
   per source shard — and injects them into their destination agendas.
   Execution is therefore a pure function of the model, whatever the
   domain count: the schedule depends only on event timestamps and the
   deterministic merge, never on which domain ran what when.

   Progress: lookahead is required positive, so w > t_min and every
   round executes at least the events at t_min. *)

type message = {
  arrival : float;
  src_shard : int;
  src_seq : int;
  dst_shard : int;
  fn : unit -> unit;
}

type shard = {
  sim : Sim.t;
  mutable outbox : message list;  (* reverse send order; sorted at the barrier *)
  mutable sent : int;  (* per-shard cross-message counter: the merge tiebreaker *)
}

type conduit = { c_src : int; c_dst : int; lookahead_ns : float }

type t = {
  shards : shard array;
  mutable conduits : conduit list;
  mutable rounds : int;
  mutable cross_messages : int;
  mutable min_window_ns : float;
  mutable last_lookahead_ns : float;
}

type stats = {
  shards : int;
  rounds : int;
  cross_messages : int;
  min_window_ns : float;
  lookahead_ns : float;
}

let create ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  {
    shards = Array.init shards (fun _ -> { sim = Sim.create (); outbox = []; sent = 0 });
    conduits = [];
    rounds = 0;
    cross_messages = 0;
    min_window_ns = infinity;
    last_lookahead_ns = infinity;
  }

let check_shard (t : t) fn what i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg
      (Printf.sprintf "Shard.%s: %s shard %d out of range [0, %d)" fn what i
         (Array.length t.shards))

let sim (t : t) i =
  check_shard t "sim" "target" i;
  t.shards.(i).sim

let conduit (t : t) ~src ~dst ~lookahead_ns =
  check_shard t "conduit" "source" src;
  check_shard t "conduit" "destination" dst;
  if src = dst then
    invalid_arg "Shard.conduit: src and dst must differ (local events need no conduit)";
  if not (lookahead_ns > 0.0) then
    invalid_arg "Shard.conduit: lookahead must be positive (zero lookahead cannot make progress)";
  let c = { c_src = src; c_dst = dst; lookahead_ns } in
  t.conduits <- c :: t.conduits;
  c

let send (t : t) (c : conduit) ~delay fn =
  if not (delay >= c.lookahead_ns) then
    invalid_arg
      (Printf.sprintf "Shard.send: delay %g below conduit lookahead %g" delay c.lookahead_ns);
  let s = t.shards.(c.c_src) in
  s.sent <- s.sent + 1;
  s.outbox <-
    { arrival = Sim.now s.sim +. delay; src_shard = c.c_src; src_seq = s.sent;
      dst_shard = c.c_dst; fn }
    :: s.outbox

(* Persistent worker pool: [run] spawns its extra domains once and
   reuses them for every round — a per-round [Domain.spawn] costs on
   the order of 100 us, which would dwarf the window work itself on
   fine-grained models with many small windows. Each round the main
   domain publishes a new task generation under the mutex and
   broadcasts; workers claim shard indices off an atomic counter (so a
   shard is touched by exactly one domain per round), then decrement
   [remaining] and the last one signals the main domain. No observable
   depends on the (shard, domain) pairing: shards share nothing inside
   a window. *)
type pool = {
  m : Mutex.t;
  start : Condition.t;
  finish : Condition.t;
  mutable gen : int;
  mutable stop : bool;
  mutable task : int -> unit;
  mutable nshards : int;
  mutable remaining : int;  (* participants (workers + main) still draining *)
  next : int Atomic.t;
  mutable workers : unit Domain.t array;
}

let pool_drain p =
  let rec claim () =
    let i = Atomic.fetch_and_add p.next 1 in
    if i < p.nshards then begin
      p.task i;
      claim ()
    end
  in
  claim ();
  Mutex.lock p.m;
  p.remaining <- p.remaining - 1;
  if p.remaining = 0 then Condition.signal p.finish;
  Mutex.unlock p.m

let rec pool_worker p my_gen =
  Mutex.lock p.m;
  while (not p.stop) && p.gen = my_gen do
    Condition.wait p.start p.m
  done;
  let stop = p.stop and gen = p.gen in
  Mutex.unlock p.m;
  if not stop then begin
    pool_drain p;
    pool_worker p gen
  end

let pool_make ~workers =
  let p =
    {
      m = Mutex.create ();
      start = Condition.create ();
      finish = Condition.create ();
      gen = 0;
      stop = false;
      task = ignore;
      nshards = 0;
      remaining = 0;
      next = Atomic.make 0;
      workers = [||];
    }
  in
  p.workers <- Array.init workers (fun _ -> Domain.spawn (fun () -> pool_worker p 0));
  p

let pool_stop p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.start;
  Mutex.unlock p.m;
  Array.iter Domain.join p.workers

(* Run [work] on every shard, on the pool if there is one. Exceptions
   are parked per shard and the lowest-index one re-raised at the
   barrier, so even failure is deterministic. *)
let parallel_each pool shards work =
  match pool with
  | None -> Array.iter work shards
  | Some p ->
    let n = Array.length shards in
    let errors = Array.make n None in
    Mutex.lock p.m;
    p.task <-
      (fun i ->
        try work shards.(i)
        with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
    p.nshards <- n;
    Atomic.set p.next 0;
    p.remaining <- Array.length p.workers + 1;
    p.gen <- p.gen + 1;
    Condition.broadcast p.start;
    Mutex.unlock p.m;
    pool_drain p;
    Mutex.lock p.m;
    while p.remaining > 0 do
      Condition.wait p.finish p.m
    done;
    Mutex.unlock p.m;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors

let min_lookahead (t : t) =
  List.fold_left (fun acc (c : conduit) -> Float.min acc c.lookahead_ns) infinity t.conduits

let next_event_time (t : t) =
  Array.fold_left (fun acc s -> Float.min acc (Sim.next_event_time s.sim)) infinity t.shards

(* Barrier: drain every outbox, sort by the total (arrival, src_shard,
   src_seq) key, inject into destination agendas. Collection order is
   irrelevant — the sort alone fixes the injection order, and injection
   order fixes the destination sequence numbers, hence execution order. *)
let exchange (t : t) =
  match
    Array.fold_left
      (fun acc s ->
        match s.outbox with
        | [] -> acc
        | msgs ->
          s.outbox <- [];
          List.rev_append msgs acc)
      [] t.shards
  with
  | [] -> ()
  | batch ->
    let batch =
      List.sort
        (fun a b ->
          match Float.compare a.arrival b.arrival with
          | 0 -> (
            match compare a.src_shard b.src_shard with
            | 0 -> compare a.src_seq b.src_seq
            | c -> c)
          | c -> c)
        batch
    in
    List.iter
      (fun m ->
        t.cross_messages <- t.cross_messages + 1;
        (* arrival >= window end = destination clock by the conservative
           bound; absolute-time injection keeps the exact timestamp the
           sender computed (a delay round-trip can be a ulp off). The max
           covers the one sub-ulp case: a window bumped to [succ t_min]
           can park the clock a ulp past an arrival that rounded down. *)
        let dst = t.shards.(m.dst_shard).sim in
        Sim.schedule_at dst ~time:(Float.max m.arrival (Sim.now dst)) m.fn)
      batch

let run ?(domains = 1) (t : t) =
  let domains = max 1 (min domains (Array.length t.shards)) in
  let pool = if domains > 1 then Some (pool_make ~workers:(domains - 1)) else None in
  let each work = parallel_each pool t.shards work in
  Fun.protect
    ~finally:(fun () -> Option.iter pool_stop pool)
    (fun () ->
      let rec round () =
        let t_min = next_event_time t in
        if t_min < infinity then begin
          let la = min_lookahead t in
          t.last_lookahead_ns <- la;
          t.rounds <- t.rounds + 1;
          if Float.is_finite la then begin
            (* If [la] is below the ulp of [t_min] the sum rounds back to
               [t_min] and a strict window would run nothing; bump to the
               next representable float so the round still makes progress. *)
            let w = t_min +. la in
            let w = if w > t_min then w else Float.succ t_min in
            t.min_window_ns <- Float.min t.min_window_ns la;
            (* Strictly-before-[w] semantics, clock parked at the boundary
               where the next batch of arrivals lands. *)
            each (fun s -> Sim.run_window s.sim ~until:w)
          end
          else
            (* No conduits (or all-infinite lookahead): the shards are fully
               independent; exhaust them. *)
            each (fun s -> Sim.run s.sim);
          exchange t;
          round ()
        end
      in
      round ())

let stats (t : t) =
  {
    shards = Array.length t.shards;
    rounds = t.rounds;
    cross_messages = t.cross_messages;
    min_window_ns = t.min_window_ns;
    lookahead_ns = t.last_lookahead_ns;
  }
