open Bm_engine
open Bm_hw

(* ------------------------------------------------------------------ *)
(* Datapath vocabulary *)

type datapath = Vring | Passthrough | Sliced

let all_datapaths = [ Vring; Passthrough; Sliced ]

let datapath_name = function Vring -> "vring" | Passthrough -> "passthrough" | Sliced -> "vf"

let datapath_of_name s =
  List.find_opt (fun d -> datapath_name d = s) all_datapaths

(* ------------------------------------------------------------------ *)
(* FSM *)

type state = Free | Attached | Draining | Reassigning

let state_name = function
  | Free -> "free"
  | Attached -> "attached"
  | Draining -> "draining"
  | Reassigning -> "reassigning"

type completion = {
  c_vf : int;
  c_queue : int;
  c_seq : int;
  c_owner : string;
  c_bytes : int;
  c_submitted_ns : float;
  c_completed_ns : float;
}

type desc = {
  d_queue : int;
  d_seq : int;
  d_owner : string;
  d_bytes : int;
  d_submitted_ns : float;
  d_deliver : completion -> unit;
}

type vf = {
  vf_id : int;
  dev : dev;
  mutable vstate : state;
  mutable vowner : string option;
  rings : desc Sim.Bounded.bounded array; (* descriptor ring per queue *)
  cq : desc Sim.Bounded.bounded; (* completion ring, Block: no loss *)
  next_seq : int array;
  q_accepted : int array;
  mutable accepted : int;
  mutable delivered : int;
  mutable rejected : int;
  mutable streaming : int; (* 0 or 1: per-VF transfers are serialized *)
  mutable bytes_moved : float;
  slice : Sim.Resource.resource;
  m_accepted : string array; (* per-queue metric names, built once *)
  m_completions : string array;
}

and dev = {
  sim : Sim.t;
  profile : Profile.t;
  link : Pcie.t;
  total_gbit_s : float;
  setup_ns : float;
  mutable functions : vf array;
  mutable active : int; (* VFs currently streaming *)
  mutable reassignments : int;
  mutable blackouts_rev : float list;
  guard : Fault.Guard.g;
  obs : Obs.t;
  fault : Fault.t;
  m_stalls : string; (* per-request metric names, built once *)
  m_lat_ns : string;
  m_blackout_rejects : string;
  m_ring_full : string;
}

(* How long the drain step sleeps between in-flight checks, and the
   register traffic a reassignment/unplug replays: a reassignment is a
   function-level reset plus re-mapping (8 emulated hops), an unplug
   half that. *)
let drain_poll_ns = 200.0
let reassign_config_hops = 4.0

let metric profile what = "iobond.vf." ^ Profile.name profile ^ "." ^ what

let per_vf_metric vf_id ~queue what =
  "iobond.vf." ^ Profile.vf_label vf_id ^ "." ^ Profile.queue_label queue ^ "." ^ what

(* The device engine for one (VF, queue): pop a descriptor, wait out
   any stall window, then stream the bytes at this VF's equal share of
   the device bandwidth. Transfers of one VF are serialized through its
   slice, so a VF counts among the streaming ones at most once; the
   share is fixed at transfer start (a deterministic GPS approximation
   — concurrent transfers started earlier keep the rate they were
   granted). A callback chain parked on its ring. *)
let rec engine_loop d vf ring =
  Sim.Bounded.recv_callback d.sim ring (fun desc ->
      if Fault.is_active d.fault Fault.Vf_stall then begin
        Obs.add d.obs d.m_stalls 1;
        Fault.when_clear d.fault Fault.Vf_stall (fun () -> transfer d vf ring desc)
      end
      else transfer d vf ring desc)

and transfer d vf ring desc =
  Sim.schedule d.sim ~delay:d.setup_ns (fun () ->
      Sim.Resource.acquire_callback d.sim vf.slice (fun () ->
          vf.streaming <- 1;
          d.active <- d.active + 1;
          let rate = d.total_gbit_s /. float_of_int d.active in
          Sim.schedule d.sim ~delay:(float_of_int desc.d_bytes *. 8.0 /. rate) (fun () ->
              d.active <- d.active - 1;
              vf.streaming <- 0;
              Sim.Resource.release vf.slice;
              Pcie.account d.link ~bytes_:desc.d_bytes;
              vf.bytes_moved <- vf.bytes_moved +. float_of_int desc.d_bytes;
              Sim.Bounded.send_callback d.sim vf.cq desc (function
                | `Sent -> engine_loop d vf ring
                | `Dropped | `Rejected -> assert false (* Block policy never loses *)))))

(* Completion dispatch for one VF: completions leave the bounded ring
   in order and go straight to the submitter's callback — the
   passthrough property: no poll loop between device and guest. *)
let rec dispatch_loop d vf =
  Sim.Bounded.recv_callback d.sim vf.cq (fun desc ->
      let c =
        {
          c_vf = vf.vf_id;
          c_queue = desc.d_queue;
          c_seq = desc.d_seq;
          c_owner = desc.d_owner;
          c_bytes = desc.d_bytes;
          c_submitted_ns = desc.d_submitted_ns;
          c_completed_ns = Sim.now d.sim;
        }
      in
      desc.d_deliver c;
      vf.delivered <- vf.delivered + 1;
      Obs.add d.obs vf.m_completions.(desc.d_queue) 1;
      Obs.observe_since d.obs d.m_lat_ns c.c_submitted_ns;
      dispatch_loop d vf)

(* Entries in each descriptor ring and each completion ring. *)
let ring_depth = 256

let create_device ?(obs = Obs.none) ?(fault = Fault.none) sim ~profile ?(vfs = 8)
    ?(queues_per_vf = 2) () =
  if vfs < 1 || vfs > 8 * Profile.max_labeled_vfs then
    invalid_arg "Vf.create_device: 1..64 virtual functions";
  if queues_per_vf < 1 then invalid_arg "Vf.create_device: queues_per_vf must be >= 1";
  let d =
    {
      sim;
      profile;
      link = Pcie.x8 ~obs ~fault sim ~register_ns:(Profile.register_ns profile);
      total_gbit_s = Profile.dma_gbit_s profile;
      setup_ns = Profile.dma_setup_ns profile;
      functions = [||];
      active = 0;
      reassignments = 0;
      blackouts_rev = [];
      guard =
        Fault.Guard.create ~obs sim ~name:"vf_reassign"
          ~policy:
            {
              Fault.Guard.default_policy with
              Fault.Guard.max_attempts = 6;
              backoff_ns = 2_000.0;
              backoff_max_ns = 32_000.0;
            };
      obs;
      fault;
      m_stalls = metric profile "stalls";
      m_lat_ns = metric profile "lat_ns";
      m_blackout_rejects = metric profile "blackout_rejects";
      m_ring_full = metric profile "ring_full";
    }
  in
  d.functions <-
    Array.init vfs (fun vf_id ->
        let per_queue what =
          Array.init queues_per_vf (fun queue -> per_vf_metric vf_id ~queue what)
        in
        {
          vf_id;
          dev = d;
          vstate = Free;
          vowner = None;
          rings =
            Array.init queues_per_vf (fun _ ->
                Sim.Bounded.create ~capacity:ring_depth ~policy:Sim.Bounded.Reject ());
          cq = Sim.Bounded.create ~capacity:ring_depth ~policy:Sim.Bounded.Block ();
          next_seq = Array.make queues_per_vf 0;
          q_accepted = Array.make queues_per_vf 0;
          accepted = 0;
          delivered = 0;
          rejected = 0;
          streaming = 0;
          bytes_moved = 0.0;
          slice = Sim.Resource.create ~capacity:1;
          m_accepted = per_queue "accepted";
          m_completions = per_queue "completions";
        });
  Array.iter
    (fun vf ->
      Array.iter
        (fun ring -> Sim.schedule sim ~delay:0.0 (fun () -> engine_loop d vf ring))
        vf.rings;
      Sim.schedule sim ~delay:0.0 (fun () -> dispatch_loop d vf))
    d.functions;
  d

let free_vfs d =
  Array.fold_left (fun acc vf -> if vf.vstate = Free then acc + 1 else acc) 0 d.functions

let id vf = vf.vf_id
let owner vf = vf.vowner
let state vf = vf.vstate
let queues vf = Array.length vf.rings
let rejected vf = vf.rejected
let in_flight vf = vf.accepted - vf.delivered
let reassignments d = d.reassignments
let blackouts d = List.rev d.blackouts_rev

let attach d ~owner () =
  match Array.find_opt (fun vf -> vf.vstate = Free) d.functions with
  | None -> Error "no free virtual function"
  | Some vf ->
    vf.vstate <- Attached;
    vf.vowner <- Some owner;
    Obs.add d.obs (metric d.profile "attach") 1;
    Obs.instant d.obs ~track:"iobond.vf" ("attach.vf" ^ string_of_int vf.vf_id);
    Ok vf

let submit vf ~queue ~bytes_ ~deliver =
  if queue < 0 || queue >= Array.length vf.rings then invalid_arg "Vf.submit: no such queue";
  if bytes_ < 0 then invalid_arg "Vf.submit: negative size";
  let d = vf.dev in
  match vf.vstate with
  | Free | Draining | Reassigning ->
    vf.rejected <- vf.rejected + 1;
    Obs.add d.obs d.m_blackout_rejects 1;
    `Rejected
  | Attached -> (
    let seq = vf.next_seq.(queue) in
    let desc =
      {
        d_queue = queue;
        d_seq = seq;
        d_owner = (match vf.vowner with Some o -> o | None -> "");
        d_bytes = bytes_;
        d_submitted_ns = Sim.now d.sim;
        d_deliver = deliver;
      }
    in
    match Sim.Bounded.send vf.rings.(queue) desc with
    | `Sent ->
      vf.next_seq.(queue) <- seq + 1;
      vf.accepted <- vf.accepted + 1;
      vf.q_accepted.(queue) <- vf.q_accepted.(queue) + 1;
      Obs.add d.obs vf.m_accepted.(queue) 1;
      `Submitted seq
    | `Rejected | `Dropped ->
      vf.rejected <- vf.rejected + 1;
      Obs.add d.obs d.m_ring_full 1;
      `Rejected)

(* Wait (on the agenda) until every accepted descriptor has been
   delivered; submissions are already being rejected by the FSM state,
   so the wait is finite. *)
let drain vf =
  while in_flight vf > 0 do
    Sim.delay drain_poll_ns
  done

let config_replay d ~hops = Sim.delay (hops *. Profile.pci_emulation_ns d.profile)

let reassign vf ~owner:new_owner =
  let d = vf.dev in
  match vf.vstate with
  | Free -> Error "Vf.reassign: function is free (attach instead)"
  | Draining | Reassigning -> Error "Vf.reassign: already mid-transition"
  | Attached ->
    let t0 = Sim.now d.sim in
    Obs.begin_span d.obs ~track:"iobond.vf" "reassign";
    vf.vstate <- Draining;
    drain vf;
    vf.vstate <- Reassigning;
    (* Replay the device configuration for the new owner under the
       Guard: while a [Vf_reassign_timeout] window is open the doorbell
       is wedged, attempts fail and back off; if the whole schedule is
       exhausted inside the window, fall back to waiting the window out
       — recovery is guaranteed either way, only the blackout grows. *)
    let configure () =
      if Fault.is_active d.fault Fault.Vf_reassign_timeout then
        Error "vf reassign doorbell wedged"
      else begin
        config_replay d ~hops:reassign_config_hops;
        Ok ()
      end
    in
    (match Fault.Guard.run d.guard configure with
    | Ok () -> ()
    | Error _ ->
      Fault.block_until_clear d.fault Fault.Vf_reassign_timeout;
      config_replay d ~hops:reassign_config_hops);
    vf.vowner <- Some new_owner;
    vf.vstate <- Attached;
    let blackout = Sim.now d.sim -. t0 in
    d.reassignments <- d.reassignments + 1;
    d.blackouts_rev <- blackout :: d.blackouts_rev;
    Obs.add d.obs (metric d.profile "reassignments") 1;
    Obs.observe d.obs (metric d.profile "blackout_ns") blackout;
    Obs.end_span d.obs ~track:"iobond.vf" "reassign";
    Ok blackout

let check_conservation d =
  let total = Array.length d.functions in
  let free = free_vfs d in
  let in_use =
    Array.fold_left (fun acc vf -> if vf.vstate <> Free then acc + 1 else acc) 0 d.functions
  in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if free + in_use <> total then err "vf pool leak: %d free + %d in use <> %d total" free in_use total
  else
    Array.fold_left
      (fun acc vf ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
          let queued = Array.fold_left (fun n r -> n + Sim.Bounded.length r) 0 vf.rings in
          let structural = queued + Sim.Bounded.length vf.cq + vf.streaming in
          let ring_drops =
            Array.fold_left (fun n r -> n + Sim.Bounded.dropped r) 0 vf.rings
            + Sim.Bounded.dropped vf.cq
          in
          if ring_drops <> 0 then err "vf%d: %d ring drops (rings must never lose)" vf.vf_id ring_drops
          else if in_flight vf <> structural then
            err "vf%d: in-flight %d <> %d queued+cq+streaming" vf.vf_id (in_flight vf) structural
          else if vf.vstate = Free && in_flight vf <> 0 then
            err "vf%d: free with %d in flight" vf.vf_id (in_flight vf)
          else if vf.vstate = Free && vf.vowner <> None then err "vf%d: free but owned" vf.vf_id
          else if vf.vstate <> Free && vf.vowner = None then
            err "vf%d: %s but ownerless" vf.vf_id (state_name vf.vstate)
          else Ok ())
      (Ok ()) d.functions
