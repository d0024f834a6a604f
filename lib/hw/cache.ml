type owner = int

type line = { mutable tag : int; mutable owner : owner; mutable lru : int; mutable valid : bool }

type counters = { mutable hits : int; mutable accesses : int }

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  lines : line array array; (* sets × ways *)
  mutable tick : int;
  stats : (owner, counters) Hashtbl.t;
}

let create ~size_kb ~ways ~line_bytes =
  let total = size_kb * 1024 in
  assert (total mod (ways * line_bytes) = 0);
  let sets = total / (ways * line_bytes) in
  let make_line () = { tag = -1; owner = -1; lru = 0; valid = false } in
  {
    sets;
    ways;
    line_bytes;
    lines = Array.init sets (fun _ -> Array.init ways (fun _ -> make_line ()));
    tick = 0;
    stats = Hashtbl.create 8;
  }

let line_bytes t = t.line_bytes

let counters t owner =
  match Hashtbl.find_opt t.stats owner with
  | Some c -> c
  | None ->
    let c = { hits = 0; accesses = 0 } in
    Hashtbl.add t.stats owner c;
    c

let access t ~owner addr =
  t.tick <- t.tick + 1;
  let block = addr / t.line_bytes in
  let set = block mod t.sets in
  let tag = block / t.sets in
  let lines = t.lines.(set) in
  let c = counters t owner in
  c.accesses <- c.accesses + 1;
  let rec find i = if i >= t.ways then None else if lines.(i).valid && lines.(i).tag = tag then Some i else find (i + 1) in
  match find 0 with
  | Some i ->
    lines.(i).lru <- t.tick;
    lines.(i).owner <- owner;
    c.hits <- c.hits + 1;
    `Hit
  | None ->
    (* Fill an invalid way if there is one, otherwise evict the LRU way. *)
    let victim = ref 0 in
    (try
       for i = 0 to t.ways - 1 do
         if not lines.(i).valid then begin
           victim := i;
           raise Exit
         end
       done;
       for i = 1 to t.ways - 1 do
         if lines.(i).lru < lines.(!victim).lru then victim := i
       done
     with Exit -> ());
    let v = lines.(!victim) in
    v.tag <- tag;
    v.owner <- owner;
    v.lru <- t.tick;
    v.valid <- true;
    `Miss

let occupancy t ~owner =
  let owned = ref 0 and valid = ref 0 in
  Array.iter
    (Array.iter (fun l ->
         if l.valid then begin
           incr valid;
           if l.owner = owner then incr owned
         end))
    t.lines;
  if !valid = 0 then 0.0 else float_of_int !owned /. float_of_int !valid

let hit_ratio t ~owner =
  match Hashtbl.find_opt t.stats owner with
  | None -> nan
  | Some c -> if c.accesses = 0 then nan else float_of_int c.hits /. float_of_int c.accesses

let reset_stats t = Hashtbl.reset t.stats

let thrash t ~owner =
  for set = 0 to t.sets - 1 do
    for way = 0 to t.ways - 1 do
      (* Distinct tags per way guarantee every resident line is evicted. *)
      let block = ((way + 1) * t.sets * 7919) + set in
      ignore (access t ~owner (block * t.line_bytes))
    done
  done
