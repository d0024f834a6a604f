(** SPDK-style cloud block storage (§3.4.2).

    Guests access SSD-backed storage across the datacenter network
    ("In the cloud, storage is normally accessed through the network",
    §4.3). A request pays: the network round trip, queueing at the
    storage node (bounded server-side parallelism), and the SSD service
    time — log-normally distributed with a rare heavy tail (background
    flash management), which is what makes the p99.9 experiments
    interesting. *)

type kind = Cloud_ssd | Local_ssd

type t

val create : ?obs:Bm_engine.Obs.t -> Bm_engine.Sim.t -> Bm_engine.Rng.t -> kind:kind -> unit -> t
(** A storage node serving 128 requests concurrently for [Cloud_ssd] (a
    distributed backend), 16 for [Local_ssd]; 512 more may wait for a
    server beyond those in service — deep enough that well-behaved
    workloads never see it, small enough that floods fail fast instead
    of queueing without bound. With [obs], each request samples server
    occupancy as a [queue_depth] counter on the ["cloud.blockstore"]
    track and feeds the ["cloud.blockstore.serve_ns"] latency histogram
    and the ["cloud.blockstore.served"] / ["cloud.blockstore.rejected"]
    counters. *)

val serve : t -> op:[ `Read | `Write | `Flush ] -> bytes_:int -> [ `Served | `Rejected ]
(** Block the calling process for the whole storage round trip. When the
    admission queue is full on arrival at the storage node, the request
    is refused after the front half of the network round trip
    ([`Rejected]) — the storage analogue of ECN/EBUSY, which clients
    (e.g. {!Bm_workload.Fio}) may retry with backoff. *)

val serve_callback :
  t -> op:[ `Read | `Write | `Flush ] -> bytes_:int -> ([ `Served | `Rejected ] -> unit) -> unit
(** {!serve} as a callback chain that passes the outcome to its last
    argument: each leg of the round trip and the media time are one
    timed event, and a storage server is taken with
    {!Bm_engine.Sim.Resource.acquire_callback}, so the events are the
    ones a process calling {!serve} takes. {!serve} is this chain
    awaited ({!Bm_engine.Sim.await}). *)

val rejected : t -> int
