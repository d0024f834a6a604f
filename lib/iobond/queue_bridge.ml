open Bm_engine
open Bm_hw
open Bm_virtio

let desc_bytes = 16
let used_elem_bytes = 8

type 'a request = { token : int; payload : 'a }

type 'a t = {
  sim : Sim.t;
  name : string;
  guest : 'a Vring.t;
  shadow : 'a Vring.t;
  tags : int array; (* shadow head -> the guest head it mirrors, -1 when reaped *)
  dma : Dma.t;
  guest_link : Pcie.t;
  base_link : Pcie.t;
  mailbox : Mailbox.t;
  ring_index : int;
  mutable guest_irq : unit -> unit;
  mutable work_hint : unit -> unit;
  mutable paused : bool;
  mutable forward_running : bool;
  mutable backward_running : bool;
  mutable forwarded : int;
  mutable completed : int;
  mutable interrupts : int;
  obs : Obs.t;
  track : string;
  fault : Fault.t;
  add_guard : Fault.Guard.g;
}

(* The shadow ring is sized to the guest ring, so [Vring.add] can only
   transiently fail; a generous retry budget with short backoff keeps
   the no-loss property without spinning every poll interval. *)
let add_policy =
  {
    Fault.Guard.default_policy with
    max_attempts = 64;
    backoff_ns = 1_000.0;
    backoff_mult = 2.0;
    backoff_max_ns = 16_000.0;
  }

let create ?(obs = Obs.none) ?(fault = Fault.none) sim ~name ~guest ~dma ~guest_link ~base_link
    ~mailbox =
  let track = "iobond." ^ name in
  let shadow = Vring.create ~size:(Vring.size guest) in
  Vring.set_obs shadow ~track:(track ^ ".shadow") obs;
  {
    sim;
    name;
    guest;
    shadow;
    tags = Array.make (Vring.size guest) (-1);
    dma;
    guest_link;
    base_link;
    mailbox;
    ring_index = Mailbox.alloc_ring mailbox;
    guest_irq = ignore;
    work_hint = ignore;
    paused = false;
    forward_running = false;
    backward_running = false;
    forwarded = 0;
    completed = 0;
    interrupts = 0;
    obs;
    track;
    fault;
    add_guard = Fault.Guard.create ~obs ~policy:add_policy sim ~name:(name ^ ".shadow_add");
  }

let set_guest_interrupt t f = t.guest_irq <- f
let set_work_hint t f = t.work_hint <- f

(* Forward mirror engine: drain new guest avail entries into the shadow
   ring, one DMA per chain (descriptors + driver->device payload). A
   callback chain: each chain's copy is timed events, and the next pop
   follows the last of them. *)
let rec pump_forward t =
  (* A wedged FPGA moves no data; the pump resumes where it left off
     once the device reset completes. *)
  Fault.when_clear t.fault Fault.Firmware_wedge (fun () ->
      match Vring.pop_avail t.guest with
      | None -> t.forward_running <- false
      | Some head -> forward t head)

and forward t head =
  Obs.begin_span t.obs ~track:t.track "forward";
  let bytes_ = (desc_bytes * Vring.descriptors t.guest ~head) + Vring.out_bytes t.guest ~head in
  Dma.copy t.dma ~src:t.guest_link ~dst:t.base_link ~bytes_ (fun () ->
      (* The guest chain stays outstanding until its completion comes
         back, so its descriptors and payload are still there to copy. *)
      let add k =
        match Vring.add_like t.shadow ~src:t.guest ~head (Vring.payload t.guest ~head) with
        | Some mirror ->
          t.tags.(mirror) <- head;
          k (Ok ())
        | None -> k (Error (t.name ^ ": shadow ring full"))
      in
      (* Cannot fail while the guest ring bounds outstanding requests,
         but stay safe: retry under the backoff policy instead of
         dropping the popped chain on the floor. *)
      Fault.Guard.run_callback t.add_guard add (fun r ->
          (match r with
          | Ok () ->
            t.forwarded <- t.forwarded + 1;
            Obs.mark t.obs ~n:1 "iobond.forwarded";
            Mailbox.set_head t.mailbox t.ring_index (Vring.avail_idx t.shadow);
            Obs.counter t.obs ~track:t.track "pending" (Vring.avail_pending t.shadow);
            if Vring.avail_pending t.shadow = 1 then t.work_hint ()
          | Error _ -> Obs.add t.obs "iobond.dropped_chains" 1);
          Obs.end_span t.obs ~track:t.track "forward";
          pump_forward t))

let start_forward t =
  if not t.forward_running then begin
    t.forward_running <- true;
    Sim.schedule t.sim ~delay:0.0 (fun () -> pump_forward t)
  end

let guest_notify t =
  Obs.instant t.obs ~track:t.track "doorbell";
  Obs.add t.obs "iobond.doorbells" 1;
  (* Posted doorbell: the guest is not stalled; the FPGA sees it one
     register hop later. *)
  Sim.schedule t.sim ~delay:(Pcie.register_ns t.guest_link) (fun () -> start_forward t)

let pending t = Vring.avail_pending t.shadow

let pause t = t.paused <- true

let resume t =
  t.paused <- false;
  if pending t > 0 then t.work_hint ()

let pop t =
  if t.paused then None
  else
    match Vring.pop_avail t.shadow with
    | None -> None
    | Some head -> Some { token = head; payload = Vring.payload t.shadow ~head }

let complete t req ?payload ~written () =
  (match payload with Some p -> Vring.set_payload t.shadow ~head:req.token p | None -> ());
  Vring.push_used t.shadow ~head:req.token ~written

(* Backward mirror engine: completions flow shadow -> guest. *)
let rec pump_backward t completed_any =
  Fault.when_clear t.fault Fault.Firmware_wedge (fun () ->
      let mirror = Vring.next_used t.shadow in
      match Vring.pop_used t.shadow with
      | None ->
        t.backward_running <- false;
        if completed_any then begin
          t.interrupts <- t.interrupts + 1;
          Obs.instant t.obs ~track:t.track "guest_irq";
          Obs.add t.obs "iobond.guest_irqs" 1;
          t.guest_irq ()
        end
      | Some (payload, written) ->
        let guest_head = t.tags.(mirror) in
        t.tags.(mirror) <- -1;
        let bytes_ = used_elem_bytes + written in
        Dma.copy t.dma ~src:t.base_link ~dst:t.guest_link ~bytes_ (fun () ->
            Vring.set_payload t.guest ~head:guest_head payload;
            Vring.push_used t.guest ~head:guest_head ~written;
            t.completed <- t.completed + 1;
            Obs.mark t.obs ~n:1 "iobond.completed";
            pump_backward t true))

let start_backward t =
  if not t.backward_running then begin
    t.backward_running <- true;
    Sim.schedule t.sim ~delay:0.0 (fun () -> pump_backward t false)
  end

let flush t k =
  Mailbox.write_tail t.mailbox t.ring_index (Vring.used_idx t.shadow) (fun () ->
      start_backward t;
      k ())

(* Post-reset resynchronisation. The shadow ring lives in base-server
   memory and survives an FPGA wedge, so nothing is re-posted: the head
   register is re-published (an absolute value — idempotent), the
   backend's work hint is re-armed, and both mirror engines restart to
   drain whatever accumulated while the device was down. *)
let resync t =
  Mailbox.set_head t.mailbox t.ring_index (Vring.avail_idx t.shadow);
  if Vring.avail_pending t.shadow > 0 then t.work_hint ();
  start_forward t;
  start_backward t

let completed t = t.completed

let check_invariants t =
  let rec mirrored h =
    h = Array.length t.tags
    || (t.tags.(h) < 0 || Vring.mirrors t.shadow ~head:h ~src:t.guest ~src_head:t.tags.(h))
       && mirrored (h + 1)
  in
  match Vring.check_invariants t.guest with
  | Error e -> Error ("guest ring: " ^ e)
  | Ok () -> (
    match Vring.check_invariants t.shadow with
    | Error e -> Error ("shadow ring: " ^ e)
    | Ok () ->
      if Vring.in_flight_requests t.shadow > Vring.in_flight_requests t.guest then
        Error "shadow holds more requests than guest"
      else if not (mirrored 0) then Error "a shadow chain differs from its guest chain"
      else Ok ())
