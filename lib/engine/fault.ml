type kind =
  | Link_down
  | Dma_stall
  | Mailbox_drop
  | Firmware_wedge
  | Pmd_crash
  | Server_failure
  | Fabric_link_down
  | Vf_stall
  | Vf_reassign_timeout

let all_kinds =
  [
    Link_down; Dma_stall; Mailbox_drop; Firmware_wedge; Pmd_crash; Server_failure;
    Fabric_link_down; Vf_stall; Vf_reassign_timeout;
  ]

let kind_index = function
  | Link_down -> 0
  | Dma_stall -> 1
  | Mailbox_drop -> 2
  | Firmware_wedge -> 3
  | Pmd_crash -> 4
  | Server_failure -> 5
  | Fabric_link_down -> 6
  | Vf_stall -> 7
  | Vf_reassign_timeout -> 8

let nkinds = 9

let kind_name = function
  | Link_down -> "link_down"
  | Dma_stall -> "dma_stall"
  | Mailbox_drop -> "mailbox_drop"
  | Firmware_wedge -> "firmware_wedge"
  | Pmd_crash -> "pmd_crash"
  | Server_failure -> "server_failure"
  | Fabric_link_down -> "fabric_link_down"
  | Vf_stall -> "vf_stall"
  | Vf_reassign_timeout -> "vf_reassign_timeout"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

(* Window lengths chosen to sit in the regimes the hardware exhibits:
   a PCIe retrain is tens of µs, a DMA hiccup shorter, a firmware
   reload longer, a process respawn longer still. *)
let default_duration_ns = function
  | Link_down -> 50_000.0
  | Dma_stall -> 20_000.0
  | Mailbox_drop -> 10_000.0
  | Firmware_wedge -> 100_000.0
  | Pmd_crash -> 200_000.0
  | Server_failure -> infinity
  | Fabric_link_down -> 150_000.0
  | Vf_stall -> 30_000.0
  | Vf_reassign_timeout -> 80_000.0

type event = { kind : kind; at : float; duration_ns : float }

type plan = { seed : int; horizon_ns : float; events : event list }

let no_faults = { seed = 0; horizon_ns = 0.0; events = [] }

let sort_events events =
  List.stable_sort
    (fun a b ->
      match compare a.at b.at with 0 -> compare (kind_index a.kind) (kind_index b.kind) | c -> c)
    events

let make_plan ~seed ?(horizon_ns = 2e6) counts =
  if horizon_ns <= 0.0 then invalid_arg "Fault.make_plan: horizon must be positive";
  let rng = Rng.create ~seed in
  (* One split per kind, in kind order, so adding events of one kind
     never moves another kind's times. *)
  let streams = Array.init nkinds (fun _ -> Rng.split rng) in
  let events =
    List.concat_map
      (fun (kind, count) ->
        if count < 0 then invalid_arg "Fault.make_plan: negative count";
        let stream = streams.(kind_index kind) in
        List.init count (fun _ ->
            { kind; at = Rng.float stream horizon_ns; duration_ns = default_duration_ns kind }))
      counts
  in
  { seed; horizon_ns; events = sort_events events }

let default_counts =
  [
    (Link_down, 2);
    (Dma_stall, 2);
    (Mailbox_drop, 2);
    (Firmware_wedge, 1);
    (Pmd_crash, 1);
  ]

let parse_spec s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "fault spec %S: expected <seed>:<spec>" s)
  | Some i -> (
    let seed_s = String.sub s 0 i in
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt seed_s with
    | None -> Error (Printf.sprintf "fault spec %S: seed %S is not an integer" s seed_s)
    | Some seed ->
      let parts =
        String.split_on_char ',' body |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      let rec go horizon counts = function
        | [] -> Ok (make_plan ~seed ?horizon_ns:horizon (List.rev counts))
        | "default" :: rest -> go horizon (List.rev_append default_counts counts) rest
        | part :: rest -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "fault spec: %S is not kind=count" part)
          | Some j -> (
            let key = String.sub part 0 j in
            let v = String.sub part (j + 1) (String.length part - j - 1) in
            match (key, kind_of_name key, int_of_string_opt v, float_of_string_opt v) with
            | "horizon", _, _, Some h when h > 0.0 && Float.is_finite h ->
              go (Some h) counts rest
            | "horizon", _, _, _ ->
              Error (Printf.sprintf "fault spec: bad horizon in %S (expected finite ns > 0)" part)
            | _, Some kind, Some count, _ when count >= 0 -> go horizon ((kind, count) :: counts) rest
            | _, Some _, _, _ ->
              Error (Printf.sprintf "fault spec: count %S is not a non-negative integer" v)
            | _, None, _, _ ->
              Error
                (Printf.sprintf "fault spec: unknown kind %S (expected one of %s)" key
                   (String.concat ", " (List.map kind_name all_kinds)))))
      in
      if parts = [] then Error "fault spec: empty (try \"default\")" else go None [] parts)

let render_plan plan =
  let line e =
    Printf.sprintf "%-14s at %12.1f ns for %s" (kind_name e.kind) e.at
      (if Float.is_finite e.duration_ns then Printf.sprintf "%.1f ns" e.duration_ns
       else "ever")
  in
  Printf.sprintf "plan seed=%d horizon=%.0fns events=%d\n%s" plan.seed plan.horizon_ns
    (List.length plan.events)
    (String.concat "\n" (List.map line plan.events))

(* ------------------------------------------------------------------ *)
(* Injector *)

type t = {
  sim : Sim.t option; (* None for the null injector *)
  the_plan : plan;
  until : float array; (* per-kind end of the open window *)
  mutable subs : (kind * (event -> unit)) list; (* reversed *)
  mutable armed : bool;
  mutable opened : int;
  mutable closed : int;
  opened_k : int array;
  closed_k : int array;
  obs : Obs.t;
}

let none =
  {
    sim = None;
    the_plan = no_faults;
    until = Array.make nkinds neg_infinity;
    subs = [];
    armed = false;
    opened = 0;
    closed = 0;
    opened_k = Array.make nkinds 0;
    closed_k = Array.make nkinds 0;
    obs = Obs.none;
  }

let create ?(obs = Obs.none) sim plan =
  {
    sim = Some sim;
    the_plan = plan;
    until = Array.make nkinds neg_infinity;
    subs = [];
    armed = false;
    opened = 0;
    closed = 0;
    opened_k = Array.make nkinds 0;
    closed_k = Array.make nkinds 0;
    obs;
  }

let injected t = t.opened
let recovered t = t.closed

let subscribe t kind f = if t.sim <> None then t.subs <- (kind, f) :: t.subs

let open_window t sim e =
  t.opened <- t.opened + 1;
  let k = kind_index e.kind in
  t.opened_k.(k) <- t.opened_k.(k) + 1;
  t.until.(k) <- Float.max t.until.(k) (Sim.now sim +. e.duration_ns);
  Obs.instant t.obs ~track:"fault" (kind_name e.kind);
  Obs.add t.obs ("fault.injected." ^ kind_name e.kind) 1;
  List.iter (fun (kind, f) -> if kind = e.kind then f e) (List.rev t.subs)

(* Terminal recovery accounting. Every injected window is reported
   recovered exactly once, at its natural close or — for windows that
   would outlive the plan (including ones ending exactly at the horizon
   and the permanent [Server_failure] windows) — at the plan horizon,
   so availability accounting is conservative: a fault is "down" for
   its whole window and never silently forgotten at simulation end. *)
let close_window t e =
  t.closed <- t.closed + 1;
  t.closed_k.(kind_index e.kind) <- t.closed_k.(kind_index e.kind) + 1;
  Obs.instant t.obs ~track:"fault" (kind_name e.kind ^ ".recovered");
  Obs.add t.obs ("fault.recovered." ^ kind_name e.kind) 1

let arm t =
  match t.sim with
  | None -> ()
  | Some sim ->
    if not t.armed then begin
      t.armed <- true;
      List.iter
        (fun e ->
          Sim.schedule sim ~delay:e.at (fun () -> open_window t sim e);
          let close_at = Float.min (e.at +. e.duration_ns) t.the_plan.horizon_ns in
          Sim.schedule sim ~delay:close_at (fun () -> close_window t e))
        t.the_plan.events
    end

let summary t =
  let per_kind =
    List.filter_map
      (fun k ->
        let i = kind_index k in
        if t.opened_k.(i) = 0 && t.closed_k.(i) = 0 then None
        else Some (Printf.sprintf "%s %d/%d" (kind_name k) t.closed_k.(i) t.opened_k.(i)))
      all_kinds
  in
  Printf.sprintf "faults recovered/injected: %d/%d%s" t.closed t.opened
    (if per_kind = [] then "" else " (" ^ String.concat ", " per_kind ^ ")")

let is_active t kind =
  match t.sim with None -> false | Some sim -> Sim.now sim < t.until.(kind_index kind)

let when_clear t kind k =
  match t.sim with
  | None -> k ()
  | Some sim ->
    let i = kind_index kind in
    (* Loop: a longer window may have opened while we slept. *)
    let rec wait () =
      let u = t.until.(i) in
      if Sim.now sim < u then Sim.schedule sim ~delay:(u -. Sim.now sim) wait else k ()
    in
    wait ()

let block_until_clear t kind = if is_active t kind then Sim.await (when_clear t kind)

(* ------------------------------------------------------------------ *)
(* Guard *)

module Guard = struct
  type policy = {
    max_attempts : int;
    backoff_ns : float;
    backoff_mult : float;
    backoff_max_ns : float;
    circuit_threshold : int;
    circuit_cooldown_ns : float;
  }

  let default_policy =
    {
      max_attempts = 4;
      backoff_ns = 500.0;
      backoff_mult = 2.0;
      backoff_max_ns = 8_000.0;
      circuit_threshold = 0;
      circuit_cooldown_ns = 1e6;
    }

  type g = {
    sim : Sim.t;
    name : string;
    policy : policy;
    mutable consecutive_failures : int;
    mutable open_until : float; (* breaker rejects while now < open_until *)
    mutable retries : int;
    mutable circuit_opens : int;
    obs : Obs.t;
    (* Metric names, built once here rather than on every retry. *)
    rejected_name : string;
    circuit_opens_name : string;
    retries_name : string;
  }

  let create ?(obs = Obs.none) ?(policy = default_policy) sim ~name =
    if policy.max_attempts < 1 then invalid_arg "Fault.Guard: max_attempts must be >= 1";
    let metric what = "fault.guard." ^ name ^ "." ^ what in
    {
      sim;
      name;
      policy;
      consecutive_failures = 0;
      open_until = neg_infinity;
      retries = 0;
      circuit_opens = 0;
      obs;
      rejected_name = metric "rejected";
      circuit_opens_name = metric "circuit_opens";
      retries_name = metric "retries";
    }

  let retries g = g.retries
  let circuit_opens g = g.circuit_opens
  let circuit_open g = Sim.now g.sim < g.open_until

  type state = Closed | Open | Half_open

  (* Half-open is the probe state: the breaker has tripped (the failure
     streak reached the threshold) and the cooldown has elapsed, so the
     next run is allowed through; its outcome closes the breaker or
     re-opens it. Observable so policies can defer to a browned-out
     control plane instead of inferring from retry counts. *)
  let state g =
    if circuit_open g then Open
    else if
      g.policy.circuit_threshold > 0
      && g.consecutive_failures >= g.policy.circuit_threshold
    then Half_open
    else Closed

  (* The bookkeeping [run] and [run_callback] share. [rejected] answers
     a run the open breaker turns away; [settle] books an attempt's
     outcome and says whether to retry, after sleeping [backoff]. *)
  let rejected g =
    Obs.add g.obs g.rejected_name 1;
    Error (g.name ^ ": circuit open")

  let settle g ~attempt = function
    | Ok _ ->
      g.consecutive_failures <- 0;
      false
    | Error _ ->
      let p = g.policy in
      if attempt >= p.max_attempts then begin
        g.consecutive_failures <- g.consecutive_failures + 1;
        if p.circuit_threshold > 0 && g.consecutive_failures >= p.circuit_threshold then begin
          g.open_until <- Sim.now g.sim +. p.circuit_cooldown_ns;
          g.circuit_opens <- g.circuit_opens + 1;
          Obs.add g.obs g.circuit_opens_name 1
        end;
        false
      end
      else begin
        g.retries <- g.retries + 1;
        Obs.add g.obs g.retries_name 1;
        true
      end

  (* The ceiling caps the whole schedule, first sleep included: a
     policy whose base backoff exceeds its cap still honours the cap. *)
  let first_backoff p = Float.min p.backoff_ns p.backoff_max_ns
  let next_backoff p backoff = Float.min (backoff *. p.backoff_mult) p.backoff_max_ns

  let run g op =
    let p = g.policy in
    if circuit_open g then rejected g
    else begin
      let rec attempt i backoff =
        let r = op () in
        if settle g ~attempt:i r then begin
          Sim.delay backoff;
          attempt (i + 1) (next_backoff p backoff)
        end
        else r
      in
      attempt 1 (first_backoff p)
    end

  let run_callback g op k =
    let p = g.policy in
    if circuit_open g then k (rejected g)
    else begin
      let rec attempt i backoff =
        op (fun r ->
            if settle g ~attempt:i r then
              Sim.schedule g.sim ~delay:backoff (fun () ->
                  attempt (i + 1) (next_backoff p backoff))
            else k r)
      in
      attempt 1 (first_backoff p)
    end
end
