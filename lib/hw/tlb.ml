type t = { entries : int; page_bytes : float }

(* A page-walk memory access mostly hits the page-walk caches and DRAM. *)
let walk_access_ns = 60.0

(* Each page visit amortises its translation across the accesses made
   while the page is hot. *)
let accesses_per_page_visit = 1024.0

let create () = { entries = 1536; page_bytes = 4096.0 }

let reach_bytes t = float_of_int t.entries *. t.page_bytes

let miss_rate t ~working_set_bytes ~locality =
  assert (locality >= 0.0 && locality <= 1.0);
  let reach = reach_bytes t in
  if working_set_bytes <= reach then 0.0
  else begin
    (* Random accesses hit a cached translation with probability
       reach/ws; local accesses always hit. *)
    let uncovered = 1.0 -. (reach /. working_set_bytes) in
    (* A page visit amortises its translation over many accesses (cache
       lines x reuse): per-access miss rates are small even for large
       working sets, which is why real TLB overheads are percents, not
       multiples. *)
    (1.0 -. locality) *. uncovered /. accesses_per_page_visit
  end

(* Native radix walk: 4 levels. Two-dimensional (EPT) walk: each of the 4
   guest levels needs a 5-access nested walk plus the final translation,
   24 accesses in the worst case (§5 / [31]). Page-walk caches make the
   typical cost lower; we charge half the worst case. *)
let walk_accesses ~virtualized = if virtualized then 24.0 /. 2.0 else 4.0 /. 2.0

let walk_ns _t ~virtualized = walk_accesses ~virtualized *. walk_access_ns

let avg_overhead_ns t ~virtualized ~working_set_bytes ~locality =
  miss_rate t ~working_set_bytes ~locality *. walk_ns t ~virtualized
