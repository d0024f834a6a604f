type instrument =
  | Counter of { mutable value : float }
  | Histogram of Stats.Histogram.t
  | Meter of Stats.Meter.t

type t = {
  table : (string, instrument) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
}

let create () = { table = Hashtbl.create 64; order = [] }
let names t = List.rev t.order
let is_empty t = t.order = []

let kind_name = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"
  | Meter _ -> "meter"

let wrong_kind name got want =
  invalid_arg (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name got) want)

let find_or_register t name make =
  match Hashtbl.find_opt t.table name with
  | Some i -> i
  | None ->
    let i = make () in
    Hashtbl.replace t.table name i;
    t.order <- name :: t.order;
    i

let incr t ?(by = 1.0) name =
  match find_or_register t name (fun () -> Counter { value = 0.0 }) with
  | Counter c -> c.value <- c.value +. by
  | i -> wrong_kind name i "counter"

let observe t ?lo ?hi ?precision name v =
  match
    find_or_register t name (fun () -> Histogram (Stats.Histogram.create ?lo ?hi ?precision ()))
  with
  | Histogram h -> Stats.Histogram.add h v
  | i -> wrong_kind name i "histogram"

let mark t ?(n = 1) name ~now =
  match find_or_register t name (fun () -> Meter (Stats.Meter.create ())) with
  | Meter m -> Stats.Meter.mark_n m ~now n
  | i -> wrong_kind name i "meter"

let counter_value t name =
  match Hashtbl.find_opt t.table name with Some (Counter c) -> c.value | _ -> 0.0

let histogram t name =
  match Hashtbl.find_opt t.table name with Some (Histogram h) -> Some h | _ -> None

let meter t name =
  match Hashtbl.find_opt t.table name with Some (Meter m) -> Some m | _ -> None

type summary =
  | Counter_total of float
  | Histogram_summary of {
      count : int;
      mean : float;
      p50 : float;
      p99 : float;
      p999 : float;
      max : float;
    }
  | Meter_rate of { count : int; per_s : float }

let summarize = function
  | Counter c -> Counter_total c.value
  | Histogram h ->
    Histogram_summary
      {
        count = Stats.Histogram.count h;
        mean = Stats.Histogram.mean h;
        p50 = Stats.Histogram.percentile h 50.0;
        p99 = Stats.Histogram.percentile h 99.0;
        p999 = Stats.Histogram.percentile h 99.9;
        max = Stats.Histogram.max h;
      }
  | Meter m -> Meter_rate { count = Stats.Meter.count m; per_s = Stats.Meter.rate m }

let snapshot t = List.map (fun name -> (name, summarize (Hashtbl.find t.table name))) (names t)

let merge a b =
  let out = create () in
  let absorb src =
    List.iter
      (fun name ->
        let i = Hashtbl.find src.table name in
        match (Hashtbl.find_opt out.table name, i) with
        | None, Counter c ->
          ignore (find_or_register out name (fun () -> Counter { value = c.value }))
        | None, Histogram h ->
          ignore (find_or_register out name (fun () -> Histogram (Stats.Histogram.copy h)))
        | None, Meter m ->
          ignore (find_or_register out name (fun () -> Meter (Stats.Meter.copy m)))
        | Some (Counter oc), Counter c -> oc.value <- oc.value +. c.value
        | Some (Histogram oh), Histogram h ->
          Hashtbl.replace out.table name (Histogram (Stats.Histogram.merge oh h))
        | Some (Meter om), Meter m ->
          Hashtbl.replace out.table name (Meter (Stats.Meter.merge om m))
        | Some other, i -> wrong_kind name other (kind_name i))
      (names src)
  in
  absorb a;
  absorb b;
  out

let table_header = [ "metric"; "kind"; "count"; "total/mean"; "p50"; "p99"; "p99.9"; "max" ]

let fnum v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000.0 || (Float.abs v < 0.01 && v <> 0.0) then Printf.sprintf "%.3e" v
  else Printf.sprintf "%.2f" v

let rows t =
  List.map
    (fun (name, s) ->
      match s with
      | Counter_total v -> [ name; "counter"; "-"; fnum v; "-"; "-"; "-"; "-" ]
      | Histogram_summary h ->
        [
          name;
          "histogram";
          string_of_int h.count;
          fnum h.mean;
          fnum h.p50;
          fnum h.p99;
          fnum h.p999;
          fnum h.max;
        ]
      | Meter_rate m ->
        [ name; "meter"; string_of_int m.count; fnum m.per_s ^ "/s"; "-"; "-"; "-"; "-" ])
    (List.sort (fun (a, _) (b, _) -> compare a b) (snapshot t))
