type t = float

let us x = x *. 1e3
let ms x = x *. 1e6
let sec x = x *. 1e9
let to_us t = t /. 1e3
let to_ms t = t /. 1e6
let to_sec t = t /. 1e9

let pp fmt t =
  let a = Float.abs t in
  if a < 1e3 then Format.fprintf fmt "%.0fns" t
  else if a < 1e6 then Format.fprintf fmt "%.2fus" (to_us t)
  else if a < 1e9 then Format.fprintf fmt "%.2fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_sec t)

let to_string t = Format.asprintf "%a" pp t
