open Bm_engine
open Bm_virtio
open Bm_guest

type pattern = Read_only | Write_only | Read_write

type result = { pattern : pattern; qps : float; avg_ms : float; p99_ms : float; queries : int }

(* Application-level request tag marking write queries (Rpc reserves
   tags < 8 for its own control traffic). *)
let write_tag = 8

let pattern_name = function
  | Read_only -> "read-only"
  | Write_only -> "write-only"
  | Read_write -> "read/write"

(* Serialised group commit: queries join the open batch; a single
   flusher writes the redo log (one flush in flight at a time, as a real
   redo log behaves) and wakes the whole batch. *)
type group_commit = {
  instance : Instance.t;
  max_batch : int;
  flush_bytes : int;
  mutable batch : unit Sim.Ivar.ivar list;
  mutable flushing : bool;
}

(* Take up to [max_batch] waiters (oldest first) for one flush. *)
let take_batch gc =
  let all = List.rev gc.batch in
  let rec split i acc = function
    | rest when i = gc.max_batch -> (List.rev acc, List.rev rest)
    | [] -> (List.rev acc, [])
    | w :: rest -> split (i + 1) (w :: acc) rest
  in
  let batch, rest = split 0 [] all in
  gc.batch <- List.rev rest;
  batch

let rec flusher gc =
  match take_batch gc with
  | [] -> gc.flushing <- false
  | waiters ->
    ignore (gc.instance.Instance.blk ~op:`Write ~bytes_:gc.flush_bytes);
    (* The leader wakes the committed group on other cores. *)
    gc.instance.Instance.ipi ();
    List.iter (fun ivar -> Sim.Ivar.fill ivar ()) waiters;
    flusher gc

let join_commit gc =
  let ivar = Sim.Ivar.create () in
  gc.batch <- ivar :: gc.batch;
  if not gc.flushing then begin
    gc.flushing <- true;
    Sim.fork (fun () -> flusher gc)
  end;
  Sim.Ivar.read ivar

(* ~256 bytes per row of hot data: 16 tables x 1M rows ~ 4 GB pool. *)
let working_set = float_of_int (16 * 1_000_000) *. 256.0

let read_cpu_ns = 150_000.0
let write_cpu_ns = 95_000.0

(* Redo flushes batch up to 8 queries (innodb-style group commit). *)
let group_commit_max = 8

let serve instance =
  let gc =
    {
      instance;
      max_batch = group_commit_max;
      flush_bytes = 32 * 1024;
      batch = [];
      flushing = false;
    }
  in
  (* Row-lock stripes: a writer holds its stripe through the commit
     flush, so slower flushes (the vm path) keep locks held longer and
     delay the readers that hash to the same stripe — this is what makes
     the mixed workload's gap exceed the write-only one (Fig. 14). *)
  let stripes = Array.init 64 (fun _ -> Sim.Resource.create ~capacity:1) in
  let stripe_of req = stripes.(req.Packet.id mod Array.length stripes) in
  Rpc.attach_server instance ~service:(fun req ->
      (* A worker picks the query up from the connection thread. *)
      instance.Instance.ipi ();
      let is_write = req.Packet.tag = write_tag in
      if is_write then begin
        Sim.Resource.with_resource (stripe_of req) (fun () ->
            instance.Instance.exec_mem_ns ~working_set ~locality:0.80 write_cpu_ns;
            join_commit gc);
        { Rpc.reply_bytes = 64; reply_packets = 1 }
      end
      else begin
        Sim.Resource.with_resource (stripe_of req) (fun () ->
            instance.Instance.exec_mem_ns ~working_set ~locality:0.80 read_cpu_ns);
        { Rpc.reply_bytes = 512; reply_packets = 1 }
      end)

(* The paper's 128 sysbench threads. *)
let threads = 128

let sysbench sim ~client ~server ~pattern ~duration () =
  let rpc = Rpc.create_client sim client in
  let rng = Rng.create ~seed:97 in
  let hist = Stats.Histogram.create ~lo:10_000.0 ~hi:1e10 () in
  let completed = ref 0 in
  let warmup = Simtime.ms 2.0 in
  let stop_at = Sim.now sim +. warmup +. duration in
  let pick_write () =
    match pattern with
    | Read_only -> false
    | Write_only -> true
    | Read_write -> Rng.bernoulli rng ~p:0.30
  in
  for i = 1 to threads do
    Sim.spawn sim (fun () ->
        Sim.delay (warmup +. (float_of_int i *. 10_000.0));
        let rec next () =
          if Sim.clock () < stop_at then begin
            let write = pick_write () in
            (match
               Rpc.call rpc ~dst:server.Instance.endpoint ~request_bytes:200
                 ~tag:(if write then write_tag else 0) ()
             with
            | `Reply latency ->
              Stats.Histogram.add hist latency;
              incr completed
            | `Timeout -> ());
            next ()
          end
        in
        next ())
  done;
  Sim.run ~until:(stop_at +. Simtime.ms 50.0) sim;
  {
    pattern;
    qps = float_of_int !completed /. Simtime.to_sec duration;
    avg_ms = Stats.Histogram.mean hist /. 1e6;
    p99_ms = Stats.Histogram.percentile hist 99.0 /. 1e6;
    queries = !completed;
  }
