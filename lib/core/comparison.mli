(** Qualitative comparison of the three cloud services (Table 1).

    The cells are derived from model properties rather than hard-coded
    prose: whether tenants share caches determines side-channel exposure,
    who holds platform control determines provider security, density
    comes from the placement model, and the performance column from the
    virtualization mechanisms each service pays. *)

type service = Vm_based | Single_tenant_bm | Bm_hive

type properties = {
  service : service;
  shares_cpu_caches : bool;  (** co-tenant data in the same L3 *)
  software_isolation_only : bool;
  tenant_controls_platform : bool;  (** unfettered firmware/BMC access *)
  cpu_mem_virtualized : bool;
  io_paravirtualized : bool;
  guests_per_server : int;
  firmware_signed : bool;
}

val properties : service -> properties

val side_channel_exposed : properties -> bool
(** Cross-tenant side channels require co-residence on shared
    micro-architectural state. *)

val provider_secure : properties -> bool
(** The provider keeps control of firmware and platform. *)

val rows : unit -> string list list
(** Table 1 as printable rows: service, security, isolation,
    performance, density. *)
