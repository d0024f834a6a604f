(** A compute board: dedicated CPU + memory + IO-Bond on a PCIe card.

    "Each bare-metal guest runs on its own compute board, a PCIe
    extension board with the dedicated CPU and memory modules" (§1). The
    board's life cycle is driven by the bm-hypervisor over PCIe: power
    on, boot from remote storage, power off (§3.2). The CPU choice is
    free — any SKU from {!Bm_hw.Cpu_spec} (§3.3). *)

type power = Off | On

type t

val create :
  ?obs:Bm_engine.Obs.t ->
  ?fault:Bm_engine.Fault.t ->
  Bm_engine.Sim.t ->
  spec:Bm_hw.Cpu_spec.t ->
  profile:Bm_iobond.Profile.t ->
  ?dma_gbit_s:float ->
  unit ->
  t
(** [obs] and [fault] are threaded into the board's IO-Bond. *)

val spec : t -> Bm_hw.Cpu_spec.t
val power : t -> power
val iobond : t -> Bm_iobond.Iobond.t
val firmware : t -> Firmware.t
val vendor_key : int
(** The key boards are provisioned with (exposed so tests and the
    control plane can produce valid signatures). *)

val cores : t -> Bm_hw.Cores.t
(** Raises [Invalid_argument] while powered off. *)

val memory : t -> Bm_hw.Memory.t

val power_on : t -> unit
(** Turn on the PCIe power (§3.2). Idempotent. *)
