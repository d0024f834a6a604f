type t = {
  vendor_key : int;
  mutable version : string;
  mutable updates : int;
  mutable rejected : int;
}

let create ~vendor_key ~version = { vendor_key; version; updates = 0; rejected = 0 }

let version t = t.version
let rejected_count t = t.rejected

(* FNV-1a over the payload, keyed by mixing the key into the state. This
   stands in for the RSA verification of the real boards. *)
let sign ~key ~payload =
  let h = ref (0xcbf29ce48422232 lxor key) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    payload;
  !h land max_int

let update t ~version ~payload ~signature =
  if sign ~key:t.vendor_key ~payload = signature then begin
    t.version <- version;
    t.updates <- t.updates + 1;
    Ok ()
  end
  else begin
    t.rejected <- t.rejected + 1;
    Error "firmware signature verification failed"
  end
