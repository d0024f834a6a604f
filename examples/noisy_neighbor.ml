(* Noisy neighbor & platform security: why multi-tenancy needs hardware
   isolation (§2.1, §2.2, Table 1).

   Part 1 — cache interference: on a vm host, tenants share the L3; an
   attacker that "repeatedly flushes the shared (L3) CPU cache with its
   own data" (§2.1) destroys a co-resident victim's hit rate. On BM-Hive
   each guest owns its board's cache: the same attack touches nothing.

   Part 2 — firmware protection: a bm-guest is powerful, but the board's
   firmware only accepts vendor-signed updates (§1), so even a malicious
   bare-metal tenant cannot persist below the OS.

     dune exec examples/noisy_neighbor.exe *)

open Bm_hw
open Bm_guest

let victim_pass cache ~owner working_set_lines =
  Cache.reset_stats cache;
  for i = 0 to working_set_lines - 1 do
    ignore (Cache.access cache ~owner (i * Cache.line_bytes cache))
  done;
  Cache.hit_ratio cache ~owner

let () =
  print_endline "=== Part 1: shared-L3 interference ===";
  (* 40 MB L3 of the Xeon E5-2682 v4, 20-way. *)
  let shared_l3 = Cache.create ~size_kb:(40 * 1024) ~ways:20 ~line_bytes:64 in
  let victim = 1 and attacker = 2 in
  let ws = 100_000 (* ~6.4 MB working set *) in
  (* Warm up, then measure the victim alone. *)
  ignore (victim_pass shared_l3 ~owner:victim ws);
  let alone = victim_pass shared_l3 ~owner:victim ws in
  (* Attacker thrashes the cache between victim passes. *)
  Cache.thrash shared_l3 ~owner:attacker;
  let attacked = victim_pass shared_l3 ~owner:victim ws in
  Printf.printf "vm host, shared L3:   victim hit rate %.0f%% alone -> %.0f%% under attack\n"
    (100.0 *. alone) (100.0 *. attacked);
  Printf.printf "                      attacker occupies %.0f%% of the cache\n"
    (100.0 *. Cache.occupancy shared_l3 ~owner:attacker);

  (* BM-Hive: victim and attacker each own a board-private L3. *)
  let own_l3 = Cache.create ~size_kb:(40 * 1024) ~ways:20 ~line_bytes:64 in
  let other_l3 = Cache.create ~size_kb:(40 * 1024) ~ways:20 ~line_bytes:64 in
  ignore (victim_pass own_l3 ~owner:victim ws);
  let before = victim_pass own_l3 ~owner:victim ws in
  Cache.thrash other_l3 ~owner:attacker;
  let after = victim_pass own_l3 ~owner:victim ws in
  Printf.printf "BM-Hive, own boards:  victim hit rate %.0f%% -> %.0f%% (attack lands elsewhere)\n"
    (100.0 *. before) (100.0 *. after);

  print_endline "\n=== Part 2: signed firmware ===";
  let sim = Bm_engine.Sim.create () in
  let board =
    Board.create sim ~spec:Cpu_spec.xeon_e5_2682_v4 ~profile:Bm_iobond.Profile.Fpga ()
  in
  let fw = Board.firmware board in
  Printf.printf "board firmware: v%s\n" (Firmware.version fw);
  (* A malicious tenant forges an update with its own key... *)
  let payload = "implant v666" in
  let forged = Firmware.sign ~key:0xBAD5EED ~payload in
  (match Firmware.update fw ~version:"666" ~payload ~signature:forged with
  | Ok () -> print_endline "  !!! forged update accepted — isolation broken"
  | Error e -> Printf.printf "  forged update rejected: %s\n" e);
  (* ...while the provider's signed update applies. *)
  let real = Firmware.sign ~key:Board.vendor_key ~payload:"official 1.1.0" in
  (match Firmware.update fw ~version:"1.1.0" ~payload:"official 1.1.0" ~signature:real with
  | Ok () -> Printf.printf "  vendor update applied: now v%s\n" (Firmware.version fw)
  | Error e -> Printf.printf "  !!! vendor update rejected: %s\n" e);
  Printf.printf "  rejected updates so far: %d\n" (Firmware.rejected_count fw)
