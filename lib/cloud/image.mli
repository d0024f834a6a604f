(** VM images.

    Interoperability (§3.1) requires that "a bm-guest can be run in a VM
    as well": the user provides one image and the cloud boots it on
    either substrate, always from remote storage ("the bootloader and
    kernel (both are a part of the VM image) are stored remotely and only
    accessible through the virtio-blk interface", §3.2). *)

type t = {
  name : string;
  bootloader_bytes : int;
  kernel_bytes : int;
  initrd_bytes : int;
  kernel_version : string;
}

val centos7 : t
(** The evaluation image: CentOS 7, kernel 3.10.0-514.26.2.el7 (§4.2),
    with a 1 MiB bootloader, a 6 MiB kernel and a 20 MiB initrd. *)

val total_boot_bytes : t -> int
(** Bytes the firmware must fetch over virtio-blk to reach the kernel. *)
