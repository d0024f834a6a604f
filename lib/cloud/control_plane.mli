(** Fleet control plane: placement, lifecycle, cold migration.

    BM-Hive's interoperability goal (§3.1) means the same control plane
    schedules vm-guests onto virtualization servers and bm-guests onto
    compute boards, from the same image; {e cold migration} moves an
    instance between the two substrates. Placement here is first-fit, the
    baseline strategy of production schedulers. *)

type substrate = Bare_metal | Virtual

type server_kind =
  | Bm_server of { boards : int; board_threads : int }
      (** a BM-Hive base with up to 16 compute boards (§3.3) *)
  | Vm_server of { sellable_threads : int }
      (** a virtualization server, e.g. 88 sellable HT (§3.5) *)

type placement = { server : int; substrate : substrate; threads : int }

type strategy =
  | First_fit  (** scan servers in declaration order — the baseline *)
  | Best_fit  (** pack the fullest feasible server (minimises stranding) *)
  | Spread  (** balance onto the emptiest server (minimises blast radius) *)

type t

val create : unit -> t

val set_admission_ceiling : t -> float -> unit
(** The fraction of fleet thread capacity the control plane will sell
    (1.0, i.e. no ceiling, until set): a placement that would push
    {!used_threads} past [ceiling × sellable_threads] is refused even
    when a server could physically host it, keeping headroom for
    failure evacuation and load spikes. Must be in (0, 1]. *)

val admission_ceiling : t -> float

val admission_rejections : t -> int
(** Placements refused by the ceiling (not by lack of physical space). *)

val set_class_ceiling : t -> cls:string -> float -> unit
(** Cap one placement class (e.g. an SLO tier) at a fraction of fleet
    thread capacity — the per-class counterpart of the single global
    admission ceiling, so a degradation policy can squeeze best-effort
    classes while leaving premium admission untouched. A placement whose
    [cls] would push that class past [ceiling × sellable_threads] is
    refused. Raises [Invalid_argument] unless the ceiling is in (0, 1]. *)

val clear_class_ceiling : t -> cls:string -> unit
(** Remove the cap for [cls]; placements of that class are again limited
    only by physical capacity and the global ceiling. Idempotent. *)

val class_rejections : t -> int
(** Placements refused by a class ceiling. *)

val add_server : ?ceiling:float -> t -> server_kind -> int
(** Returns the server id. [ceiling] (default 1.0) is this host's
    sellable fraction of capacity: a Bm base sells at most
    [floor (ceiling * boards)] boards, a Vm host at most
    [floor (ceiling * sellable_threads)] threads, so per-host thread
    utilization never exceeds the ceiling — the per-host form of the
    fleet-wide admission ceiling. Raises [Invalid_argument] unless
    [ceiling] is in (0, 1]. *)

val place :
  t ->
  name:string ->
  vcpus:int ->
  ?prefer:substrate ->
  ?strategy:strategy ->
  ?avoid:int list ->
  ?cls:string ->
  image:Image.t ->
  unit ->
  (placement, string) result
(** Schedule an instance. With [prefer], only that substrate is tried.
    A bm-guest occupies a whole board (the board's thread count must be
    ≥ [vcpus]); a vm-guest occupies exactly [vcpus] threads. [strategy]
    defaults to [First_fit]. Servers whose id is in [avoid] (default
    none) are skipped entirely — the anti-affinity hook the
    {!Scheduler} builds on. [cls] tags the instance with a placement
    class: its threads count toward that class's ceiling (if one is
    set), and the class sticks to the instance through release,
    migration and evacuation. *)

val lookup : t -> string -> placement option

val reclassify : t -> name:string -> cls:string -> unit
(** Retag a placed instance with [cls], moving its threads between the
    class accounts — how a classifier installed after the fleet was
    built backfills the class accounts. No-op for unknown names;
    never refused (ceilings bind on future placements only). *)

val release : t -> string -> unit

val cold_migrate : t -> name:string -> to_:substrate -> (placement, string) result
(** Stop the instance and re-place it on the other substrate, reusing its
    image (§3.1: "a prerequisite of cold migration is that bm-guests must
    be able to connect to the cloud storage and network"). *)

val fail_server : t -> int -> unit
(** Mark a server failed: it offers no further capacity and is skipped
    by every placement. Raises [Invalid_argument] on an unknown id. *)

val restore_server : t -> int -> unit
(** Bring a failed server back (repaired / re-racked): it offers
    capacity again from its current (normally empty) occupancy. Raises
    [Invalid_argument] on an unknown id. *)

val server_failed : t -> int -> bool

val server_ids : t -> int list
(** Every server id, in declaration order. *)

val server_utilization : t -> int -> float
(** [used_threads / capacity] of one server (0 for unknown ids). Never
    exceeds the server's ceiling for placements made through {!place}. *)

val server_ceiling : t -> int -> float

val evacuate :
  t -> server:int -> ?strategy:strategy -> unit -> (string * (placement, string) result) list
(** Mark [server] failed and re-place each of its instances (victims
    handled in name order, so the outcome is deterministic for a given
    fleet). A victim tries its own substrate first — a bm-guest whose
    board survived can be live-migrated inside the bm fleet, a vm-guest
    restarts on another virtualization server — then falls back to the
    other substrate, the cold-migration path. Per victim, the new
    placement or the placement error (fleet full). *)

val sellable_threads : t -> int
(** Total thread capacity across the fleet (failed servers excluded). *)

val used_threads : t -> int
