type t = {
  rate : float; (* tokens per second; infinity = unlimited *)
  burst : float;
  mutable tokens : float;
  mutable updated : float; (* last refill timestamp, ns *)
}

let create ~rate ~burst =
  assert (rate > 0.0 && burst > 0.0);
  { rate; burst; tokens = burst; updated = 0.0 }

let unlimited () = { rate = infinity; burst = infinity; tokens = infinity; updated = 0.0 }

let is_unlimited t = t.rate = infinity

let refill t ~now =
  if now > t.updated then begin
    let elapsed_s = (now -. t.updated) /. 1e9 in
    t.tokens <- Float.min t.burst (t.tokens +. (elapsed_s *. t.rate));
    t.updated <- now
  end

let reserve t ~now n =
  if is_unlimited t then now
  else begin
    refill t ~now;
    t.tokens <- t.tokens -. n;
    if t.tokens >= 0.0 then now
    else
      (* Debt of [-tokens]: ready once the deficit has refilled. *)
      now +. (-.t.tokens /. t.rate *. 1e9)
  end

let available t ~now =
  if is_unlimited t then infinity
  else begin
    refill t ~now;
    Float.max 0.0 t.tokens
  end

let try_take_n t ~now n =
  if is_unlimited t then true
  else begin
    refill t ~now;
    if t.tokens >= n then begin
      t.tokens <- t.tokens -. n;
      true
    end
    else false
  end

let take_n t n =
  let now = Sim.clock () in
  let ready = reserve t ~now n in
  let wait = ready -. now in
  if wait > 0.0 then Sim.delay wait;
  wait
