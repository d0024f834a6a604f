open Bm_engine
open Bm_hw

type t = {
  base_link : Pcie.t;
  mutable heads : int array;
  mutable tails : int array;
  mutable rings : int;
  mutable pci_accesses : int;
  mutable tail_writes : int;
  mutable lost_tail_writes : int;
  obs : Obs.t;
  fault : Fault.t;
  guard : Fault.Guard.g;
}

(* Retry budget sized against the Mailbox_drop window: the cumulative
   backoff (2+4+8+16 µs) outlasts the default 10 µs drop, so a lone
   window never loses a tail write. *)
let tail_policy =
  {
    Fault.Guard.default_policy with
    max_attempts = 5;
    backoff_ns = 2_000.0;
    backoff_mult = 2.0;
    backoff_max_ns = 16_000.0;
  }

let create ?(obs = Obs.none) ?(fault = Fault.none) sim ~base_link =
  {
    base_link;
    heads = Array.make 8 0;
    tails = Array.make 8 0;
    rings = 0;
    pci_accesses = 0;
    tail_writes = 0;
    lost_tail_writes = 0;
    obs;
    fault;
    guard = Fault.Guard.create ~obs ~policy:tail_policy sim ~name:"mailbox.tail";
  }

let grow arr n = if n <= Array.length arr then arr else Array.append arr (Array.make n 0)

let alloc_ring t =
  let i = t.rings in
  t.rings <- t.rings + 1;
  t.heads <- grow t.heads t.rings;
  t.tails <- grow t.tails t.rings;
  i

let check t i = if i < 0 || i >= t.rings then invalid_arg "Mailbox: bad ring index"

let set_head t i v =
  check t i;
  t.heads.(i) <- v

let tail t i =
  check t i;
  t.tails.(i)

let write_tail t i v k =
  check t i;
  Obs.instant t.obs ~track:"iobond.mailbox" "tail_write";
  Obs.add t.obs "iobond.mailbox.tail_writes" 1;
  (* Each attempt pays the register hop; during a Mailbox_drop window
     the write crosses the link but never latches. The value written is
     absolute, so retries are idempotent. *)
  let attempt k =
    Pcie.register_access t.base_link (fun () ->
        if Fault.is_active t.fault Fault.Mailbox_drop then begin
          Obs.add t.obs "iobond.mailbox.dropped_tail_writes" 1;
          k (Error "mailbox: tail write dropped")
        end
        else begin
          t.tails.(i) <- v;
          t.tail_writes <- t.tail_writes + 1;
          k (Ok ())
        end)
  in
  Fault.Guard.run_callback t.guard attempt (function
    | Ok () -> k ()
    | Error _ ->
      t.lost_tail_writes <- t.lost_tail_writes + 1;
      Obs.add t.obs "iobond.mailbox.lost_tail_writes" 1;
      k ())

let notify_pci_access t =
  Obs.add t.obs "iobond.mailbox.pci_accesses" 1;
  t.pci_accesses <- t.pci_accesses + 1

let pci_access_count t = t.pci_accesses
let tail_writes t = t.tail_writes
let lost_tail_writes t = t.lost_tail_writes
