type event = {
  at : float;
  track : string;
  name : string;
  kind : [ `Instant | `Begin | `End | `Counter of float ];
}

type t = {
  capacity : int;
  buffer : event option array;
  mutable next : int; (* total events ever recorded *)
}

let create ?(capacity = 65536) () =
  assert (capacity > 0);
  { capacity; buffer = Array.make capacity None; next = 0 }

let record t event =
  t.buffer.(t.next mod t.capacity) <- Some event;
  t.next <- t.next + 1

let instant t ~track name ~now = record t { at = now; track; name; kind = `Instant }
let begin_span t ~track name ~now = record t { at = now; track; name; kind = `Begin }
let end_span t ~track name ~now = record t { at = now; track; name; kind = `End }
let counter t ~track name ~now v = record t { at = now; track; name; kind = `Counter v }

let events t =
  let n = min t.next t.capacity in
  let start = t.next - n in
  List.init n (fun i ->
      match t.buffer.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let dropped t = max 0 (t.next - t.capacity)

let count t ~track ?name () =
  List.length
    (List.filter
       (fun e -> e.track = track && match name with Some n -> e.name = n | None -> true)
       (events t))

let span_durations t ~track name =
  (* Pair Begin/End events of the same (track, name) in order; nesting of
     the same name on one track pairs innermost-first. *)
  let stack = ref [] in
  let out = ref [] in
  List.iter
    (fun e ->
      if e.track = track && e.name = name then
        match e.kind with
        | `Begin -> stack := e.at :: !stack
        | `End -> (
          match !stack with
          | t0 :: rest ->
            stack := rest;
            out := (e.at -. t0) :: !out
          | [] -> ())
        | `Instant | `Counter _ -> ())
    (events t);
  List.rev !out

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let export_json t =
  (* Chrome trace_event "JSON Array Format" wrapped in an object, one
     numeric tid per track (first-seen order) named via "M" metadata
     records. Timestamps are microseconds, as the format requires. *)
  let buf = Buffer.create 4096 in
  let tids = Hashtbl.create 16 in
  let tracks_in_order = ref [] in
  let tid track =
    match Hashtbl.find_opt tids track with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tids + 1 in
      Hashtbl.replace tids track i;
      tracks_in_order := track :: !tracks_in_order;
      i
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  List.iter
    (fun e ->
      let ph, extra =
        match e.kind with
        | `Instant -> ("i", ",\"s\":\"t\"")
        | `Begin -> ("B", "")
        | `End -> ("E", "")
        | `Counter v -> ("C", Printf.sprintf ",\"args\":{\"value\":%s}" (json_number v))
      in
      emit
        (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"sim\",\"ph\":\"%s\",\"ts\":%s,\"pid\":1,\"tid\":%d%s}"
           (json_escape e.name) ph
           (json_number (e.at /. 1e3))
           (tid e.track) extra))
    (events t);
  List.iter
    (fun track ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (Hashtbl.find tids track) (json_escape track)))
    (List.rev !tracks_in_order);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf
