open Bm_engine
open Bm_guest

type kernel = Copy | Scale | Add | Triad

type result = { kernel : kernel; best_gb_s : float; avg_gb_s : float }

let kernel_name = function Copy -> "Copy" | Scale -> "Scale" | Add -> "Add" | Triad -> "Triad"

let bytes_per_element = function Copy | Scale -> 16 | Add | Triad -> 24

let run_kernel sim instance ~threads ~elements kernel =
  let total_bytes = float_of_int (elements * bytes_per_element kernel) in
  let per_thread = total_bytes /. float_of_int threads in
  let t0 = Sim.now sim in
  let remaining = ref threads in
  let done_ = Sim.Ivar.create () in
  for _ = 1 to threads do
    Sim.spawn sim (fun () ->
        instance.Instance.mem_stream ~bytes_:per_thread;
        decr remaining;
        if !remaining = 0 then Sim.Ivar.fill done_ ())
  done;
  Sim.spawn sim (fun () -> Sim.Ivar.read done_);
  Sim.run sim;
  let elapsed = Sim.now sim -. t0 in
  total_bytes /. elapsed (* bytes/ns = GB/s *)

let run sim instance ?(elements = 200_000_000) ?(runs = 10) () =
  let threads = 16 in
  List.map
    (fun kernel ->
      let rates = List.init runs (fun _ -> run_kernel sim instance ~threads ~elements kernel) in
      let best = List.fold_left Float.max neg_infinity rates in
      let avg = List.fold_left ( +. ) 0.0 rates /. float_of_int runs in
      { kernel; best_gb_s = best; avg_gb_s = avg })
    [ Copy; Scale; Add; Triad ]
