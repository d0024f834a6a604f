type t = {
  name : string;
  bootloader_bytes : int;
  kernel_bytes : int;
  initrd_bytes : int;
  kernel_version : string;
}

let make ~name ~kernel_version () =
  {
    name;
    bootloader_bytes = 1 lsl 20;
    kernel_bytes = 6 lsl 20;
    initrd_bytes = 20 lsl 20;
    kernel_version;
  }

let centos7 = make ~name:"centos-7" ~kernel_version:"3.10.0-514.26.2.el7" ()

let total_boot_bytes t = t.bootloader_bytes + t.kernel_bytes + t.initrd_bytes
