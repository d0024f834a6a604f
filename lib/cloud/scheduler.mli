(** Fleet placement scheduler: bin-packing with anti-affinity, per-host
    ceilings and tenant quotas.

    The layer between tenant requests and the {!Control_plane}: requests
    carry an owner ({!Tenant}), an optional anti-affinity group, and a
    memory footprint; the scheduler packs them first-fit-decreasing
    (largest vCPU count first, names breaking ties, so a batch placement
    is a pure function of the request list), refuses placements that
    would violate a tenant quota or co-locate two members of one
    anti-affinity group, and relies on the control plane's per-host
    utilization ceilings for headroom. {!drain} is the mass-evacuation
    path: fail a host, re-place every victim elsewhere (anti-affinity
    and ceilings still enforced), stranding what no longer fits;
    {!retry_stranded} re-places strandees once capacity returns, and
    {!rebalance} spreads load off the hottest hosts.

    Invariants the property suite enforces:
    - two guests of one anti-affinity group never share a host;
    - no host's thread utilization exceeds its ceiling;
    - equal request lists produce identical assignments;
    - any drain / restore / rebalance sequence conserves guests
      (placed + stranded = admitted; no duplicates);
    - the views ({!assignments}, {!stranded}, {!occupancy},
      {!guests_on}, {!hosts_of_tenant}, {!tenants_on_host}) are pure
      functions of the guest table (and, for {!occupancy}, of the
      control plane's server list): equal to a reference rebuilt from
      {!lookup} and {!request_of}, however reads and writes interleave. *)

type request = {
  name : string;
  tenant : string;
  vcpus : int;
  mem_gb : int;  (** memory footprint — what an evacuation must move *)
  prefer : Control_plane.substrate option;
  group : string option;  (** anti-affinity group *)
}

val request :
  name:string ->
  tenant:string ->
  vcpus:int ->
  ?mem_gb:int ->
  ?prefer:Control_plane.substrate ->
  ?group:string ->
  unit ->
  request
(** [mem_gb] defaults to [2 * vcpus]. *)

type t

val create : ?obs:Bm_engine.Obs.t -> Control_plane.t -> t
(** Candidate hosts are tried first-fit in the control plane's order.
    With [obs], the scheduler counts ["cloud.sched.placed" / ".rejected"
    / ".evacuated" / ".stranded" / ".moves"]. *)

val control_plane : t -> Control_plane.t

val generation : t -> int
(** A counter bumped by every write the views can see: each insert into
    or removal from the guest table and each change of a guest's
    placement ({!place}, {!release}, {!drain}, {!retry_stranded},
    {!rebalance}). The views are served from one snapshot built on the
    first read after the counter moves, so a caller can key its own
    derived state on it too: an unchanged generation means an unchanged
    guest table. *)

val set_classifier : t -> (request -> string option) -> unit
(** Install the placement classifier: every subsequent placement that
    goes through the scheduler (including evacuation re-placement and
    rebalance moves) tags its control-plane instance with the returned
    class, so per-class admission ceilings
    ({!Control_plane.set_class_ceiling}) can bind on it. The default
    classifier returns [None] (no class, never capped). *)

val register_tenant : t -> Tenant.t -> unit
(** Raises [Invalid_argument] on a duplicate tenant name. *)

val tenant : t -> string -> Tenant.t option
val tenants : t -> Tenant.t list
(** Sorted by name. *)

val place : t -> request -> (Control_plane.placement, string) result
(** Admit against the tenant quota, then place avoiding the request
    group's hosts. A request refused (quota, anti-affinity, capacity,
    ceiling) is not retained — the error is the caller's to handle. *)

val place_batch : t -> request list -> (string * (Control_plane.placement, string) result) list
(** First-fit-decreasing: requests sorted by descending [vcpus] (names
    break ties) and placed in that order; results in the same order. *)

val release : t -> string -> unit
(** Free the instance, its quota and its anti-affinity slot. Unknown
    names are ignored. *)

val drain :
  t -> server:int -> (string * (Control_plane.placement, string) result) list
(** Mark [server] failed ({!Control_plane.fail_server}) and re-place
    each of its guests, largest first: the victim's own substrate is
    tried before the other (the cold-migration fallback), anti-affinity
    and ceilings still hold. Victims that no longer fit are {e stranded}
    — they keep their tenant admission and wait in the scheduler until
    {!retry_stranded}. *)

val retry_stranded : t -> (string * (Control_plane.placement, string) result) list
(** Attempt to place every stranded guest (largest first) — the
    recovery step after a failed host is repaired
    ({!Control_plane.restore_server}) or capacity is added. *)

val rebalance : t -> unit -> (string * int * int) list
(** Move guests (smallest first) off hosts whose thread utilization
    exceeds the fleet mean by more than 0.05 onto the emptiest feasible
    hosts, until each donor is within that band or 64 moves were
    made. Returns
    [(name, from_server, to_server)] per move. Anti-affinity, ceilings
    and conservation hold throughout. *)

val lookup : t -> string -> Control_plane.placement option
val request_of : t -> string -> request option

val assignments : t -> (string * Control_plane.placement) list
(** Every placed guest, sorted by name. *)

val stranded : t -> string list
(** Guests admitted but currently unplaced, sorted by name. *)

val guest_count : t -> int
(** Placed + stranded. *)

val guests_on : t -> server:int -> string list
(** Names placed on one host, sorted. *)

val hosts_of_tenant : t -> tenant:string -> int list
(** Distinct server ids currently hosting any guest of [tenant],
    sorted — one side of the blast-radius question a selective
    degradation policy asks ("where does this tenant live?"). *)

val tenants_on_host : t -> server:int -> string list
(** Distinct tenant names with a guest on [server], sorted — the other
    side ("who shares this host?"). *)

val occupancy : t -> (int * int) list
(** [(server id, placed guest count)] for every server, in declaration
    order. *)

val anti_affinity_violations : t -> (string * int) list
(** Recomputed from the ground truth: [(group, host)] pairs hosting
    more than one member of the group. Empty on a well-formed fleet —
    the property the QCheck suite asserts. *)
