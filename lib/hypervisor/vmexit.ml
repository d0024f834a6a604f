open Bm_engine

type reason =
  | Ept_violation
  | Msr_access
  | Ipi
  | Io_instruction
  | Hlt
  | External_interrupt
  | Interrupt_window
  | Cpuid

let handle_ns = function
  | Ept_violation -> 12_000.0
  | Msr_access -> 9_000.0
  | Ipi -> 10_000.0
  | Io_instruction -> 10_000.0
  | Hlt -> 4_000.0
  | External_interrupt -> 6_000.0
  | Interrupt_window -> 5_000.0
  | Cpuid -> 3_000.0

let all =
  [ Ept_violation; Msr_access; Ipi; Io_instruction; Hlt; External_interrupt; Interrupt_window; Cpuid ]

let index = function
  | Ept_violation -> 0
  | Msr_access -> 1
  | Ipi -> 2
  | Io_instruction -> 3
  | Hlt -> 4
  | External_interrupt -> 5
  | Interrupt_window -> 6
  | Cpuid -> 7

let name = function
  | Ept_violation -> "ept"
  | Msr_access -> "msr"
  | Ipi -> "ipi"
  | Io_instruction -> "io"
  | Hlt -> "hlt"
  | External_interrupt -> "extint"
  | Interrupt_window -> "injection"
  | Cpuid -> "cpuid"

(* Per-reason counter names, indexed like [counts], built once. *)
let metric_names = Array.of_list (List.map (fun r -> "hyp.vmexit." ^ name r) all)

type counters = { counts : int array; mutable time_ns : float; obs : Obs.t; track : string }

let create_counters ?(obs = Obs.none) ?(track = "hyp.vmexit") () =
  { counts = Array.make (List.length all) 0; time_ns = 0.0; obs; track }

let record t reason =
  let i = index reason in
  t.counts.(i) <- t.counts.(i) + 1;
  t.time_ns <- t.time_ns +. handle_ns reason;
  Obs.instant t.obs ~track:t.track (name reason);
  Obs.add t.obs metric_names.(i) 1

let count t reason = t.counts.(index reason)
let total t = Array.fold_left ( + ) 0 t.counts
let total_time_ns t = t.time_ns

let rate_per_s t ~elapsed_ns = if elapsed_ns <= 0.0 then nan else float_of_int (total t) /. (elapsed_ns /. 1e9)
