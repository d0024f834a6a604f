open Bm_engine

type timing = {
  post_ns : float;
  probe_ns : float;
  probe_accesses : int;
  load_ns : float;
  bytes_loaded : int;
  total_ns : float;
}

let read_chunk_bytes = 64 * 1024

(* Modern server firmware spends a few hundred ms in POST before
   reaching the boot device (fast-boot path). *)
let post_time_ns = 400e6

let load_image instance ~bytes ~queue_depth =
  let chunks = (bytes + read_chunk_bytes - 1) / read_chunk_bytes in
  let outstanding = Sim.Resource.create ~capacity:queue_depth in
  let done_ = Sim.Ivar.create () in
  let remaining = ref chunks in
  for _ = 1 to chunks do
    Sim.Resource.acquire outstanding;
    Sim.fork (fun () ->
        ignore (instance.Instance.blk ~op:`Read ~bytes_:read_chunk_bytes);
        Sim.Resource.release outstanding;
        decr remaining;
        if !remaining = 0 then Sim.Ivar.fill done_ ())
  done;
  Sim.Ivar.read done_

(* Block reads kept in flight while streaming the image. *)
let queue_depth = 8

let run instance ~image () =
  let t0 = Sim.clock () in
  Sim.delay post_time_ns;
  let t1 = Sim.clock () in
  match instance.Instance.probe () with
  | Error e -> Error ("virtio probe failed: " ^ e)
  | Ok accesses ->
    let t2 = Sim.clock () in
    let bytes = Bm_cloud.Image.total_boot_bytes image in
    load_image instance ~bytes ~queue_depth;
    let t3 = Sim.clock () in
    Ok
      {
        post_ns = t1 -. t0;
        probe_ns = t2 -. t1;
        probe_accesses = accesses;
        load_ns = t3 -. t2;
        bytes_loaded = bytes;
        total_ns = t3 -. t0;
      }
