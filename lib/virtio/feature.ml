type t = int

let indirect_desc = 1 lsl 28
let event_idx = 1 lsl 29
let version_1 = 1 lsl 32
let mrg_rxbuf = 1 lsl 15
let csum_offload = 1 lsl 0

let default_net = indirect_desc lor event_idx lor version_1 lor mrg_rxbuf lor csum_offload
let default_blk = indirect_desc lor event_idx lor version_1

let contains set bits = set land bits = bits
let intersect = ( land )
