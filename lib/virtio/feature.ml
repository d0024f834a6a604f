type t = int

let version_1 = 1 lsl 32
let mrg_rxbuf = 1 lsl 15
let csum_offload = 1 lsl 0

let default_net = version_1 lor mrg_rxbuf lor csum_offload
let default_blk = version_1

let contains set bits = set land bits = bits
let intersect = ( land )
