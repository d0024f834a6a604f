type message =
  | Get_features
  | Set_features of int
  | Set_owner
  | Set_mem_table of { regions : int }
  | Set_vring_num of { index : int; size : int }
  | Set_vring_addr of { index : int }
  | Set_vring_base of { index : int; base : int }
  | Set_vring_kick of { index : int }
  | Set_vring_call of { index : int }
  | Set_vring_enable of { index : int; enabled : bool }
  | Get_vring_base of { index : int }

type reply = Ack | Features of int | Vring_base of int

type vring_state = {
  mutable num : int option;
  mutable addr : bool;
  mutable base : int option;
  mutable kick : bool;
  mutable call : bool;
  mutable enabled : bool;
}

type phase = Fresh | Owned | Featured | Memory_mapped

type t = {
  backend_features : int;
  rings : vring_state array;
  mutable phase : phase;
  mutable features : int option;
  mutable handled : int;
}

let fresh_ring () =
  { num = None; addr = false; base = None; kick = false; call = false; enabled = false }

let create ?(backend_features = Bm_virtio.Feature.default_net) () =
  {
    backend_features;
    rings = Array.init 2 (fun _ -> fresh_ring ());
    phase = Fresh;
    features = None;
    handled = 0;
  }

let ring t index =
  if index < 0 || index >= Array.length t.rings then Error "vring index out of range"
  else Ok t.rings.(index)

let ring_configured r =
  r.num <> None && r.addr && r.base <> None && r.kick && r.call

let handle t msg =
  t.handled <- t.handled + 1;
  match msg with
  | Get_features -> Ok (Features t.backend_features)
  | Set_owner ->
    if t.phase <> Fresh then Error "SET_OWNER: connection already owned"
    else begin
      t.phase <- Owned;
      Ok Ack
    end
  | Set_features accepted ->
    if t.phase = Fresh then Error "SET_FEATURES before SET_OWNER"
    else if accepted land lnot t.backend_features <> 0 then
      Error "SET_FEATURES: driver accepted bits the backend never offered"
    else begin
      t.features <- Some accepted;
      if t.phase = Owned then t.phase <- Featured;
      Ok Ack
    end
  | Set_mem_table { regions } ->
    if t.phase = Fresh || t.phase = Owned then Error "SET_MEM_TABLE before feature negotiation"
    else if regions <= 0 then Error "SET_MEM_TABLE: empty table"
    else begin
      (* A new memory table invalidates every ring's configuration: the
         addresses it contained point into the old mapping. *)
      Array.iteri (fun i _ -> t.rings.(i) <- fresh_ring ()) t.rings;
      t.phase <- Memory_mapped;
      Ok Ack
    end
  | Set_vring_num { index; size } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      if t.phase <> Memory_mapped then Error "SET_VRING_NUM before SET_MEM_TABLE"
      else if size <= 0 || size land (size - 1) <> 0 then Error "SET_VRING_NUM: bad ring size"
      else begin
        r.num <- Some size;
        Ok Ack
      end)
  | Set_vring_addr { index } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      if t.phase <> Memory_mapped then Error "SET_VRING_ADDR before SET_MEM_TABLE"
      else if r.num = None then Error "SET_VRING_ADDR before SET_VRING_NUM"
      else begin
        r.addr <- true;
        Ok Ack
      end)
  | Set_vring_base { index; base } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      if base < 0 then Error "SET_VRING_BASE: negative"
      else begin
        r.base <- Some base;
        Ok Ack
      end)
  | Set_vring_kick { index } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      r.kick <- true;
      Ok Ack)
  | Set_vring_call { index } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      r.call <- true;
      Ok Ack)
  | Set_vring_enable { index; enabled } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      if enabled && not (ring_configured r) then
        Error "SET_VRING_ENABLE: ring not fully configured"
      else begin
        r.enabled <- enabled;
        Ok Ack
      end)
  | Get_vring_base { index } -> (
    match ring t index with
    | Error e -> Error e
    | Ok r ->
      (* Stops the ring, as on device reset / migration out. *)
      r.enabled <- false;
      Ok (Vring_base (Option.value r.base ~default:0)))

let ring_enabled t index =
  index >= 0 && index < Array.length t.rings && t.rings.(index).enabled

let negotiated_features t = t.features
let messages_handled t = t.handled

let standard_handshake t ~driver_features =
  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
  let* offered = handle t Get_features in
  let offered = match offered with Features f -> f | Ack | Vring_base _ -> 0 in
  let* _ = handle t Set_owner in
  let* _ = handle t (Set_features (offered land driver_features)) in
  let* _ = handle t (Set_mem_table { regions = 2 }) in
  let rec rings i =
    if i >= Array.length t.rings then Ok ()
    else
      let* _ = handle t (Set_vring_num { index = i; size = 256 }) in
      let* _ = handle t (Set_vring_addr { index = i }) in
      let* _ = handle t (Set_vring_base { index = i; base = 0 }) in
      let* _ = handle t (Set_vring_kick { index = i }) in
      let* _ = handle t (Set_vring_call { index = i }) in
      let* _ = handle t (Set_vring_enable { index = i; enabled = true }) in
      rings (i + 1)
  in
  rings 0
