(* Host-time spans around the benchmark's calls into the simulator's
   public API. A span has a name, start and end, the span that was open
   when it began, and the workload rep it belongs to. Spans stay in
   memory and are exported as Chrome trace JSON when the run ends.

   Recording costs two clock reads per call, and the benchmark makes a
   handful of calls per rep, so spans are kept on untraced reps too: the
   per-layer host times then come from runs without simulator sinks. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a top-level span *)
  rep : int;
  traced : bool;  (** the rep ran with the simulator's metrics and trace sinks *)
  start : float;
  stop : float;
}

type t = {
  mutable finished : span list;  (** newest first *)
  mutable open_ : int list;  (** ids of the spans enclosing the current call *)
  mutable next_id : int;
  mutable rep : int;
  mutable traced : bool;
  origin : float;
}

let now = Unix.gettimeofday

let create () =
  { finished = []; open_ = []; next_id = 1; rep = 0; traced = false; origin = now () }

let start_rep t ~rep ~traced =
  t.rep <- rep;
  t.traced <- traced

(* Run [f] inside a span and return its result with the span's length. *)
let record t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> 0 in
  t.open_ <- id :: t.open_;
  let start = now () in
  let finish () =
    let stop = now () in
    t.open_ <- List.tl t.open_;
    t.finished <- { id; name; parent; rep = t.rep; traced = t.traced; start; stop } :: t.finished;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let spans t = List.rev t.finished
let duration s = s.stop -. s.start

(* Total length of the spans called [name] in one rep. *)
let total t ~rep name =
  List.fold_left
    (fun acc (s : span) -> if s.rep = rep && s.name = name then acc +. duration s else acc)
    0.0 t.finished

(* A span's self time is its length minus the part its children cover.
   Children of one span run one after another, so their lengths add. *)
let self_times t ~rep =
  let mine = List.filter (fun (s : span) -> s.rep = rep) (spans t) in
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    mine;
  let by_name = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s : span) ->
      let self = duration s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
      match Hashtbl.find_opt by_name s.name with
      | Some v -> Hashtbl.replace by_name s.name (v +. self)
      | None ->
        Hashtbl.replace by_name s.name self;
        order := s.name :: !order)
    mine;
  List.rev_map (fun n -> (n, Hashtbl.find by_name n)) !order

(* Chrome trace "complete" events: one thread per rep, so nesting shows
   as a flame per rep. *)
let export_json t =
  let us x = Json.Num (Float.round ((x -. t.origin) *. 1e7) /. 10.0) in
  let event (s : span) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (if s.traced then "traced" else "untraced"));
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Num (Float.round (duration s *. 1e7) /. 10.0));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.rep));
        ("args", Json.Obj [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)) ]);
      ]
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.map event (spans t))) ])
