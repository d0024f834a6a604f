(** EFI boot over virtio (§3.2).

    "The firmware (i.e., BIOS) on the board then starts executing the
    boot loader, which will further load the bm-guest kernel. … we extend
    the (EFI-based) firmware of the compute board to recognize and
    utilize virtio during boot." The same sequence serves a vm-guest
    booting under SeaBIOS/OVMF, so boot works uniformly on any
    {!Instance.t}: probe the virtio devices, stream the bootloader,
    kernel and initrd from remote storage, hand over to the kernel. *)

type timing = {
  post_ns : float;  (** firmware power-on self test *)
  probe_ns : float;  (** virtio PCI discovery *)
  probe_accesses : int;
  load_ns : float;  (** bootloader + kernel + initrd reads *)
  bytes_loaded : int;
  total_ns : float;
}

val run : Instance.t -> image:Bm_cloud.Image.t -> unit -> (timing, string) result
(** Boot [image] on the instance, streaming it in 64 KiB block reads
    with 8 kept in flight.
    Must be called from a simulation process. *)
