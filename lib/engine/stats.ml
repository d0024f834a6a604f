module Summary = struct
  type t = { mutable count : int; mutable mean : float; mutable m2 : float }

  let create () = { count = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
end

module Histogram = struct
  (* Counts live in a [Float.Array] — a no-scan block, so the major GC
     never walks it — that covers only the bucket range touched so far:
     [counts.(j)] is bucket [base + j]. An empty histogram holds the
     shared empty array, and the range at least doubles, toward the new
     bucket, whenever an observation lands outside it. Float counts are
     exact below 2^53, so every percentile scan reads what an int array
     would. *)
  type sums = { mutable total : float; mutable min : float; mutable max : float }

  type t = {
    lo : float;
    ratio : float;
    log_ratio : float;
    nbuckets : int;
    mutable base : int;
    mutable counts : Float.Array.t;
    mutable count : int;
    sums : sums;  (* an all-float record is flat: updating it never allocates *)
  }

  let create ?(lo = 1.0) ?(hi = 1e12) ?(precision = 0.01) () =
    (* Explicit raises, not asserts: the guards must survive release
       builds. The negated comparisons also reject NaN. *)
    if not (lo > 0.0 && Float.is_finite lo) then
      invalid_arg "Stats.Histogram.create: lo must be positive and finite";
    if not (hi > lo && Float.is_finite hi) then
      invalid_arg "Stats.Histogram.create: hi must be finite and above lo";
    if not (precision > 0.0 && Float.is_finite precision) then
      invalid_arg "Stats.Histogram.create: precision must be positive and finite";
    let ratio = 1.0 +. precision in
    let log_ratio = log ratio in
    {
      lo;
      ratio;
      log_ratio;
      nbuckets = int_of_float (ceil (log (hi /. lo) /. log_ratio)) + 1;
      base = 0;
      counts = Float.Array.create 0;
      count = 0;
      sums = { total = 0.0; min = infinity; max = neg_infinity };
    }

  let index t v =
    if v <= t.lo then 0
    else begin
      (* Clamp before converting: [int_of_float] of +inf is not a clamp
         (it is 0 on amd64). *)
      let x = log (v /. t.lo) /. t.log_ratio in
      if x >= float_of_int (t.nbuckets - 1) then t.nbuckets - 1 else int_of_float x
    end

  (* Widen [counts] to take bucket [i]: at least double the range,
     growing toward [i] and staying within [0, nbuckets). *)
  let cover t i =
    let len = Float.Array.length t.counts in
    if len = 0 then begin
      t.base <- i;
      t.counts <- Float.Array.make 1 0.0
    end
    else begin
      let first = Stdlib.min i t.base and last = Stdlib.max i (t.base + len - 1) in
      let len' = Stdlib.min t.nbuckets (Stdlib.max (last - first + 1) (2 * len)) in
      let base' =
        if i < t.base then Stdlib.max 0 (last + 1 - len')
        else Stdlib.min first (t.nbuckets - len')
      in
      let counts = Float.Array.make len' 0.0 in
      Float.Array.blit t.counts 0 counts (t.base - base') len;
      t.base <- base';
      t.counts <- counts
    end

  let[@inline] bump t i n =
    if i < t.base || i >= t.base + Float.Array.length t.counts then cover t i;
    let j = i - t.base in
    Float.Array.set t.counts j (Float.Array.get t.counts j +. n)

  let add_n t v n =
    if Float.is_nan v then invalid_arg "Stats.Histogram.add: NaN";
    bump t (index t v) (float_of_int n);
    t.count <- t.count + n;
    let s = t.sums in
    s.total <- s.total +. (v *. float_of_int n);
    if v < s.min then s.min <- v;
    if v > s.max then s.max <- v

  let add t v = add_n t v 1
  let count t = t.count
  let mean t = if t.count = 0 then nan else t.sums.total /. float_of_int t.count
  let min t = t.sums.min
  let max t = t.sums.max

  (* Representative value of bucket [i]: geometric midpoint of its bounds. *)
  let bucket_value t i = t.lo *. (t.ratio ** (float_of_int i +. 0.5))

  let percentile t p =
    if not (p >= 0.0 && p <= 100.0) then
      invalid_arg "Stats.Histogram.percentile: p must be in [0, 100]";
    if t.count = 0 then nan
    else begin
      let rank = p /. 100.0 *. float_of_int t.count in
      let rank = Float.max rank 1.0 in
      let s = t.sums in
      (* Buckets outside the covered range are empty, so the scan
         starts at [base] and meets the rank where a full scan would. *)
      let rec scan j seen =
        if j >= Float.Array.length t.counts then
          Float.min s.max (bucket_value t (t.nbuckets - 1))
        else begin
          let seen = seen +. Float.Array.get t.counts j in
          if seen >= rank then
            (* Clamp to the observed extrema so tiny histograms stay sane. *)
            Float.max s.min (Float.min s.max (bucket_value t (t.base + j)))
          else scan (j + 1) seen
        end
      in
      scan 0 0.0
    end

  let copy t =
    let { total; min; max } = t.sums in
    { t with counts = Float.Array.copy t.counts; sums = { total; min; max } }

  let merge a b =
    if not (a.lo = b.lo && a.ratio = b.ratio && a.nbuckets = b.nbuckets) then
      invalid_arg "Stats.Histogram.merge: different bucket geometry";
    let m = copy a in
    Float.Array.iteri (fun j n -> if n <> 0.0 then bump m (b.base + j) n) b.counts;
    m.count <- a.count + b.count;
    let s = m.sums in
    s.total <- s.total +. b.sums.total;
    s.min <- Float.min s.min b.sums.min;
    s.max <- Float.max s.max b.sums.max;
    m

end

module Meter = struct
  type t = { mutable count : int; mutable first : float; mutable last : float }

  let create () = { count = 0; first = nan; last = nan }

  let mark_n t ~now n =
    if t.count = 0 then t.first <- now;
    t.last <- now;
    t.count <- t.count + n

  let count t = t.count

  let rate t =
    let span = t.last -. t.first in
    if t.count < 2 || span <= 0.0 then nan else float_of_int t.count /. (span /. 1e9)

  let copy t = { t with count = t.count }

  let merge a b =
    if a.count = 0 then copy b
    else if b.count = 0 then copy a
    else
      {
        count = a.count + b.count;
        first = Float.min a.first b.first;
        last = Float.max a.last b.last;
      }
end
