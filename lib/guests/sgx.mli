(** SGX enclaves on the bare-metal service (§6).

    "The current design of SGX does not work well in virtual machines …
    the KVM hypervisor and QEMU require special builds with the SGX SDK
    and the guest kernel requires additional drivers. We plan to add
    native support to SGX in BM-Hive so that users can directly migrate
    their SGX code to the bare-metal service without additional efforts."

    This module implements that plan: enclaves are created natively on a
    bm-guest or a physical machine; on a stock vm-guest creation is
    refused (matching the special-build requirement the paper cites). *)

type t

val create : Instance.t -> name:string -> epc_mb:int -> (t, string) result
(** Allocate an enclave. Fails on a vm-guest, or when the requested EPC
    exceeds what the instance's sockets provide. *)

val ecall : t -> work_ns:float -> unit
(** Enter the enclave, run [work_ns] of computation, exit. Each
    transition costs ~8,000 cycles on the era's silicon; the work itself
    runs at native speed on the bm-guest's cores. Must be called from a
    simulation process. *)

val transitions : t -> int

val attest : t -> int
(** Produce a (toy) attestation quote binding the enclave name and its
    measurement — deterministic, so a verifier can check it. *)

val verify_quote : name:string -> quote:int -> bool
