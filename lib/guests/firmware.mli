(** Signed compute-board firmware.

    §1: "The firmware of the compute board is properly signed, and can
    only be updated if the signature of the new firmware passes the
    verification." This models the verification gate: updates carry a
    signature computed with the vendor key over the payload; anything
    else — including a signature made with a different key, or a payload
    modified after signing — is rejected and leaves the running firmware
    untouched. *)

type t

val create : vendor_key:int -> version:string -> t
val version : t -> string
val rejected_count : t -> int

val sign : key:int -> payload:string -> int
(** Produce a signature over [payload] with [key] (keyed digest). *)

val update : t -> version:string -> payload:string -> signature:int -> (unit, string) result
(** Apply an update if [signature] verifies against the vendor key. *)
