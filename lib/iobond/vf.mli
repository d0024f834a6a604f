(** SR-IOV virtual functions over the IO-Bond DMA engine.

    The paper's IO-Bond gives every guest exactly one shadow-vring
    virtio path mediated by the bm-hypervisor poll loop, and its §5
    discussion asks what that mediation costs against direct device
    assignment. This module supplies the comparison point: a physical
    function ({!dev}) exposes [N] virtual functions, each with its own
    queue pair, an equal share of the device's DMA bandwidth, and a
    bounded completion ring. Completions are delivered straight into
    the guest's handler at device latency — no poll loop, no shadow
    mirror — which is the passthrough datapath of the [vf_ablation]
    experiment.

    VFs have a lifecycle FSM (free → attached → draining →
    reassigning) supporting hot-plug/unplug and SVFF-style
    hot-reassignment between guests: a reassignment first drains the
    VF's in-flight work to the old owner (nothing is lost or
    duplicated — sequence numbers keep climbing across the swap), then
    replays the device configuration under a {!Bm_engine.Fault.Guard}
    (a [Vf_reassign_timeout] window stretches it), and the whole
    blackout is measured.

    Everything is seed-deterministic: arbitration is a pure function
    of the transfer start times, attach picks the lowest free index,
    and all waiting happens on the simulation agenda. With [?obs] the
    device emits bounded-cardinality per-VF/per-queue metrics (labels
    from {!Profile.vf_label}/{!Profile.queue_label}). *)

open Bm_engine

(** {2 Datapath selection}

    Shared vocabulary for the per-guest datapath choice, used by the
    hypervisors, the scheduler, the experiments and the CLI. *)

type datapath =
  | Vring  (** the paper's shadow-vring virtio path through the poll loop *)
  | Passthrough  (** exclusive whole-device assignment at device latency *)
  | Sliced  (** one VF of a shared device: arbitration + bounded queues *)

val all_datapaths : datapath list
val datapath_name : datapath -> string
val datapath_of_name : string -> datapath option

(** {2 Lifecycle FSM} *)

type state =
  | Free
  | Attached
  | Draining  (** in-flight work completing to the old owner *)
  | Reassigning  (** drained; device configuration replaying *)

(** {2 Completions} *)

type completion = {
  c_vf : int;  (** VF index on its device *)
  c_queue : int;
  c_seq : int;  (** per-(VF, queue) monotonic sequence number *)
  c_owner : string;  (** owner at submit time: drains go to the old owner *)
  c_bytes : int;
  c_submitted_ns : float;
  c_completed_ns : float;
}

(** {2 Devices and virtual functions} *)

type dev
type vf

val create_device :
  ?obs:Obs.t ->
  ?fault:Fault.t ->
  Sim.t ->
  profile:Profile.t ->
  ?vfs:int ->
  ?queues_per_vf:int ->
  unit ->
  dev
(** A physical function with [vfs] virtual functions (default 8, max
    {!Profile.max_labeled_vfs} × 8 = 64), [queues_per_vf] queue pairs
    each (default 2), 256-entry descriptor rings and 256-entry
    completion rings ([Block] policy — a slow consumer backpressures
    the device instead of losing completions). The profile's DMA rate
    is shared equally among the VFs streaming. Creation starts the
    per-queue device engines and the completion dispatcher, callback
    chains that park on their empty rings, so an unused device adds no
    events to the agenda after the first instant. *)

val free_vfs : dev -> int

val attach : dev -> owner:string -> unit -> (vf, string) result
(** Claim the lowest-indexed free VF for [owner]. Fails when every VF
    is attached. *)

val reassign : vf -> owner:string -> (float, string) result
(** SVFF-style hot-reassignment: reject new submissions, drain
    in-flight completions to the old owner, replay the device
    configuration under a Guard (retry with backoff; a
    [Vf_reassign_timeout] fault window stretches the step), then hand
    the VF to [owner]. Returns the measured blackout in ns — the
    window during which the VF accepted work from nobody. Sequence
    numbers are preserved across the swap, so completions are neither
    lost nor duplicated. Must run in a simulation process; fails on a
    VF that is free or already mid-transition. *)

val id : vf -> int
val owner : vf -> string option
val state : vf -> state
val queues : vf -> int

val submit :
  vf -> queue:int -> bytes_:int -> deliver:(completion -> unit) -> [ `Submitted of int | `Rejected ]
(** Post one descriptor on [queue]. Non-blocking; returns the assigned
    sequence number, or [`Rejected] when the VF is not [Attached]
    (draining or reassigning — the blackout is visible, not
    silent) or the descriptor ring is full. The device engine later
    charges the DMA setup cost, streams the bytes at this VF's current
    share ([gbit_s / VFs streaming], fixed at transfer start), and
    delivers the completion by calling [deliver] from scheduler context
    at device latency. [deliver] must not block; guest-side costs (IRQ
    entry, stack) belong to the callback's own accounting. A [Vf_stall] fault window parks the
    engine, not the submitter. *)

(** {2 Accounting} *)

val rejected : vf -> int
(** Submissions refused (ring full or VF not attached). *)

val in_flight : vf -> int
(** [accepted - delivered]: descriptors queued, streaming, or waiting
    in the completion ring. *)

val reassignments : dev -> int
val blackouts : dev -> float list
(** Measured blackout of every completed reassignment, oldest first. *)

val check_conservation : dev -> (unit, string) result
(** Structural invariants: every VF is in exactly one state, free +
    in-use = total, and per VF [accepted = delivered + in_flight] with
    [in_flight = 0] whenever the VF is quiescent ([Free]). *)
