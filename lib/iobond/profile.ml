type t = Fpga | Asic

let register_ns = function Fpga -> 800.0 | Asic -> 200.0
let pci_emulation_ns t = 2.0 *. register_ns t
let dma_gbit_s = function Fpga | Asic -> 50.0
let dma_setup_ns = function Fpga -> 250.0 | Asic -> 100.0
let name = function Fpga -> "FPGA" | Asic -> "ASIC"

(* Per-VF/per-queue metric labels, with hard caps so a device with
   many functions cannot blow up the metric registry: indexes past the
   cap collapse into one overflow bucket. *)
let max_labeled_vfs = 8
let max_labeled_queues = 4

let vf_label id = if id >= 0 && id < max_labeled_vfs then "vf" ^ string_of_int id else "vf_other"

let queue_label q =
  if q >= 0 && q < max_labeled_queues then "q" ^ string_of_int q else "q_other"
