open Bm_hw
open Bm_iobond

type power = Off | On

let vendor_key = 0x5F3759DF

type t = {
  spec : Cpu_spec.t;
  iobond : Iobond.t;
  firmware : Firmware.t;
  cores : Cores.t;
  memory : Memory.t;
  mutable power : power;
}

let create ?obs ?fault sim ~spec ~profile ?dma_gbit_s () =
  {
    spec;
    iobond = Iobond.create ?obs ?fault sim ~profile ?dma_gbit_s ();
    firmware = Firmware.create ~vendor_key ~version:"1.0.0";
    cores = Cores.create sim ~spec ();
    memory = Memory.of_spec sim spec;
    power = Off;
  }

let spec t = t.spec
let power t = t.power
let iobond t = t.iobond
let firmware t = t.firmware

let cores t =
  if t.power = Off then invalid_arg "Board.cores: board is powered off";
  t.cores

let memory t =
  if t.power = Off then invalid_arg "Board.memory: board is powered off";
  t.memory

let power_on t = t.power <- On
