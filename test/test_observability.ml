(* Tests for the observability layer: histogram properties, trace
   correctness (including Chrome trace_event JSON export), the metrics
   registry, and the determinism guarantee — instrumentation is pure
   recording, so a run with sinks installed is bit-identical to one
   without. *)

open Bm_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Stats.Histogram properties *)

let values_arb = QCheck.(list_of_size Gen.(1 -- 120) (float_range 0.5 5e9))

let close_rel a b =
  if a = b then true
  else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b) < 1e-9

let prop_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone in p" ~count:200
    QCheck.(pair values_arb (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (vs, (p, q)) ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) vs;
      let lo = Float.min p q and hi = Float.max p q in
      Stats.Histogram.percentile h lo <= Stats.Histogram.percentile h hi)

let prop_merge_is_combined_stream =
  QCheck.Test.make ~name:"histogram merge == histogram of combined stream" ~count:200
    QCheck.(pair values_arb (list (float_range 0.5 5e9)))
    (fun (l1, l2) ->
      let h1 = Stats.Histogram.create () and h2 = Stats.Histogram.create () in
      let combined = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h1) l1;
      List.iter (Stats.Histogram.add h2) l2;
      List.iter (Stats.Histogram.add combined) (l1 @ l2);
      let m = Stats.Histogram.merge h1 h2 in
      Stats.Histogram.count m = Stats.Histogram.count combined
      && Stats.Histogram.min m = Stats.Histogram.min combined
      && Stats.Histogram.max m = Stats.Histogram.max combined
      && Stats.Histogram.percentile m 50.0 = Stats.Histogram.percentile combined 50.0
      && Stats.Histogram.percentile m 99.0 = Stats.Histogram.percentile combined 99.0
      && close_rel (Stats.Histogram.mean m) (Stats.Histogram.mean combined))

let prop_percentile_within_observed =
  QCheck.Test.make ~name:"percentiles stay within observed extrema despite clamping" ~count:200
    (* Values far outside the [10, 1000] geometry get clamped into edge
       buckets; reported percentiles must still lie inside the raw
       observation range. *)
    QCheck.(pair (list_of_size Gen.(1 -- 80) (float_range 1e-3 1e6)) (float_range 0.0 100.0))
    (fun (vs, p) ->
      let h = Stats.Histogram.create ~lo:10.0 ~hi:1000.0 () in
      List.iter (Stats.Histogram.add h) vs;
      let v = Stats.Histogram.percentile h p in
      v >= Stats.Histogram.min h && v <= Stats.Histogram.max h)

let prop_below_lo_collapses =
  QCheck.Test.make ~name:"all observations below lo collapse to the max observation" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 80) (float_range 1e-3 9.9)) (float_range 0.0 100.0))
    (fun (vs, p) ->
      let h = Stats.Histogram.create ~lo:10.0 ~hi:1000.0 () in
      List.iter (Stats.Histogram.add h) vs;
      Stats.Histogram.percentile h p = Stats.Histogram.max h)

let prop_add_n_equals_repeated_add =
  QCheck.Test.make ~name:"add_n t v n == n repetitions of add t v" ~count:200
    QCheck.(pair (float_range 0.5 1e9) (int_range 1 50))
    (fun (v, n) ->
      let bulk = Stats.Histogram.create () and loop = Stats.Histogram.create () in
      Stats.Histogram.add_n bulk v n;
      for _ = 1 to n do
        Stats.Histogram.add loop v
      done;
      Stats.Histogram.count bulk = Stats.Histogram.count loop
      && Stats.Histogram.min bulk = Stats.Histogram.min loop
      && Stats.Histogram.max bulk = Stats.Histogram.max loop
      && Stats.Histogram.percentile bulk 50.0 = Stats.Histogram.percentile loop 50.0
      && close_rel (Stats.Histogram.mean bulk) (Stats.Histogram.mean loop))

(* ------------------------------------------------------------------ *)
(* Trace correctness *)

let test_ring_buffer_dropped () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.instant t ~track:"x" (Printf.sprintf "e%d" i) ~now:(float_of_int i)
  done;
  check_int "dropped is exact" 12 (Trace.dropped t);
  let evs = Trace.events t in
  check_int "capacity events retained" 8 (List.length evs);
  (* The survivors are the newest 8, oldest first. *)
  Alcotest.(check string) "oldest survivor" "e13" (List.hd evs).Trace.name;
  Alcotest.(check string) "newest survivor" "e20" (List.nth evs 7).Trace.name

(* A minimal recursive-descent JSON parser — just enough to prove the
   export is well-formed without depending on a JSON library. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      String.iter expect word;
      value
    in
    let string_body () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'u' ->
            (* skip the four hex digits; the decoded rune is irrelevant here *)
            advance ();
            advance ();
            advance ();
            advance ();
            Buffer.add_char buf '?'
          | Some c -> Buffer.add_char buf c
          | None -> fail "bad escape");
          advance ();
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (elements [])
        end
      | Some '"' -> Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (number ())
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
end

let sample_trace () =
  let t = Trace.create () in
  Trace.begin_span t ~track:"iobond.tx" "forward" ~now:100.0;
  Trace.instant t ~track:"hw.pcie" "doorbell \"quoted\"\n" ~now:150.0;
  Trace.counter t ~track:"iobond.tx" "pending" ~now:200.0 3.0;
  Trace.end_span t ~track:"iobond.tx" "forward" ~now:400.0;
  Trace.instant t ~track:"hw.pcie" "irq" ~now:500.0;
  t

let test_export_json_valid () =
  let t = sample_trace () in
  let parsed = Json.parse (Trace.export_json t) in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  (* 5 recorded events + one thread_name metadata record per track. *)
  check_int "event count" 7 (List.length events);
  List.iter
    (fun e ->
      check_bool "has name" true (Json.member "name" e <> None);
      check_bool "has ph" true (Json.member "ph" e <> None);
      check_bool "has pid" true (Json.member "pid" e <> None))
    events;
  let phases =
    List.filter_map
      (fun e -> match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
      events
  in
  Alcotest.(check (list string)) "phases in order" [ "B"; "i"; "C"; "E"; "i"; "M"; "M" ] phases;
  let counter_arg =
    List.find_map
      (fun e ->
        match (Json.member "ph" e, Json.member "args" e) with
        | Some (Json.Str "C"), Some args -> Json.member "value" args
        | _ -> None)
      events
  in
  check_bool "counter carries value" true (counter_arg = Some (Json.Num 3.0))

let test_export_json_monotone_per_track () =
  let t = sample_trace () in
  let parsed = Json.parse (Trace.export_json t) in
  let events =
    match Json.member "traceEvents" parsed with Some (Json.Arr evs) -> evs | _ -> []
  in
  let last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match (Json.member "ph" e, Json.member "tid" e, Json.member "ts" e) with
      | Some (Json.Str "M"), _, _ -> ()
      | _, Some (Json.Num tid), Some (Json.Num ts) ->
        let prev = Option.value (Hashtbl.find_opt last tid) ~default:neg_infinity in
        check_bool "ts monotone per track" true (ts >= prev);
        Hashtbl.replace last tid ts
      | _ -> Alcotest.fail "event missing tid/ts")
    events;
  check_bool "saw both tracks" true (Hashtbl.length last = 2)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.incr m ~by:4.0 "a.count";
  Metrics.observe m "a.lat_ns" 100.0;
  Metrics.observe m "a.lat_ns" 300.0;
  Metrics.mark m "a.pps" ~now:0.0;
  Metrics.mark m ~n:9 "a.pps" ~now:1e9;
  check_float "counter" 5.0 (Metrics.counter_value m "a.count");
  (match Metrics.histogram m "a.lat_ns" with
  | Some h -> check_int "histogram count" 2 (Stats.Histogram.count h)
  | None -> Alcotest.fail "histogram not registered");
  (match Metrics.meter m "a.pps" with
  | Some meter ->
    check_int "meter count" 10 (Stats.Meter.count meter);
    check_float "meter rate" 10.0 (Stats.Meter.rate meter)
  | None -> Alcotest.fail "meter not registered");
  Alcotest.(check (list string))
    "registration order" [ "a.count"; "a.lat_ns"; "a.pps" ] (Metrics.names m)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:2.0 "c";
  Metrics.incr b ~by:3.0 "c";
  Metrics.observe a "h" 10.0;
  Metrics.observe b "h" 1000.0;
  Metrics.mark a "m" ~now:0.0;
  Metrics.mark b "m" ~now:2e9;
  let merged = Metrics.merge a b in
  check_float "counters add" 5.0 (Metrics.counter_value merged "c");
  (match Metrics.histogram merged "h" with
  | Some h ->
    check_int "histogram count" 2 (Stats.Histogram.count h);
    check_float "histogram min" 10.0 (Stats.Histogram.min h);
    check_float "histogram max" 1000.0 (Stats.Histogram.max h)
  | None -> Alcotest.fail "merged histogram missing");
  (match Metrics.meter merged "m" with
  | Some meter -> check_int "meter counts add" 2 (Stats.Meter.count meter)
  | None -> Alcotest.fail "merged meter missing");
  (* Inputs are untouched. *)
  check_float "input a intact" 2.0 (Metrics.counter_value a "c");
  check_float "input b intact" 3.0 (Metrics.counter_value b "c")

let test_metrics_merge_wrong_kind () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "x";
  Metrics.observe b "x" 1.0;
  check_bool "wrong-kind merge raises" true
    (match Metrics.merge a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_render_shape () =
  let m = Metrics.create () in
  Metrics.incr m "z.c";
  Metrics.observe m "a.h" 42.0;
  let rows = Metrics.rows m in
  check_int "one row per instrument" 2 (List.length rows);
  List.iter
    (fun row -> check_int "row width matches header" (List.length Metrics.table_header) (List.length row))
    rows;
  (* Sorted by name: the histogram "a.h" precedes the counter "z.c". *)
  Alcotest.(check string) "sorted first" "a.h" (List.hd (List.hd rows));
  check_bool "rows non-empty" true (rows <> [])

(* ------------------------------------------------------------------ *)
(* Determinism: tracing must not perturb simulation results. *)

let test_tracing_preserves_determinism () =
  let run ?trace ?metrics () =
    match
      Bmhive.Experiments.(run { default_ctx with quick = true; seed = 11; trace; metrics })
        [ "ablation_reg" ]
    with
    | [ (_, Ok outcome) ] -> outcome
    | _ -> Alcotest.fail "ablation_reg did not run"
  in
  let bare = run () in
  let t1 = Trace.create () and m1 = Metrics.create () in
  let traced1 = run ~trace:t1 ~metrics:m1 () in
  let t2 = Trace.create () and m2 = Metrics.create () in
  let traced2 = run ~trace:t2 ~metrics:m2 () in
  check_bool "results identical with tracing off vs on" true (bare = traced1);
  check_bool "results identical across traced runs" true (traced1 = traced2);
  check_bool "trace non-empty" true (Trace.events t1 <> []);
  check_bool "event streams identical" true (Trace.events t1 = Trace.events t2);
  check_bool "metrics non-empty" true (not (Metrics.is_empty m1));
  check_bool "metric rows identical" true (Metrics.rows m1 = Metrics.rows m2)

(* ------------------------------------------------------------------ *)
(* End-to-end: sinks observe the vm datapath and the bm datapath. *)

let test_vm_datapath_metrics () =
  let open Bm_workload in
  let trace = Trace.create () in
  let metrics = Metrics.create () in
  let tb = Testbed.make ~seed:5 ~trace ~metrics () in
  let _host, vm = Testbed.vm_guest tb in
  Sim.spawn tb.Testbed.sim (fun () ->
      for _ = 1 to 20 do
        ignore (vm.Bm_guest.Instance.blk ~op:`Read ~bytes_:4096)
      done);
  Testbed.run tb;
  check_bool "blockstore served all requests" true
    (Metrics.counter_value metrics "cloud.blockstore.served" >= 20.0);
  (match Metrics.histogram metrics "cloud.blockstore.serve_ns" with
  | Some h -> check_bool "serve latencies recorded" true (Stats.Histogram.count h >= 20)
  | None -> Alcotest.fail "no blockstore latency histogram");
  (* Each completion is delivered by an injected interrupt (§2 exit tax). *)
  check_bool "injection exits counted" true
    (Metrics.counter_value metrics "hyp.vmexit.injection" > 0.0);
  check_bool "trace saw events" true (Trace.events trace <> [])

let test_bm_datapath_covers_layers () =
  let trace = Trace.create () in
  let metrics = Metrics.create () in
  (match
     Bmhive.Experiments.(run { default_ctx with quick = true; seed = 3; trace = Some trace;
                               metrics = Some metrics })
       [ "ablation_batch" ]
   with
  | [ (_, Ok _) ] -> ()
  | _ -> Alcotest.fail "ablation_batch did not run");
  let names = Metrics.names metrics in
  let covered prefix = List.exists (fun n -> Astring.String.is_prefix ~affix:prefix n) names in
  List.iter
    (fun prefix -> check_bool ("metrics from " ^ prefix) true (covered prefix))
    [ "iobond."; "hw."; "virtio."; "cloud."; "hyp." ];
  let tracks =
    List.sort_uniq compare (List.map (fun e -> e.Trace.track) (Trace.events trace))
  in
  check_bool "multiple trace tracks" true (List.length tracks >= 3)

(* ------------------------------------------------------------------ *)
(* Probes on a run with no sink *)

(* Minor-heap words one call of [f] allocates, over 10,000 calls, less
   what an empty bracket costs. *)
let words_per_call f =
  let n = 10_000 in
  let bracket g =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      g ()
    done;
    Gc.minor_words () -. before
  in
  let empty = bracket (fun () -> ()) in
  (bracket f -. empty) /. float_of_int n

let test_sinkless_probes_allocate_nothing () =
  let obs = Obs.of_sim (Sim.create ()) in
  let q = Sim.Bounded.create ~capacity:4 ~policy:Sim.Bounded.Drop_tail () in
  List.iter
    (fun (name, f) -> check_float (name ^ " words/call") 0.0 (words_per_call f))
    [
      ("instant", fun () -> Obs.instant obs ~track:"t" "x");
      ("begin_span", fun () -> Obs.begin_span obs ~track:"t" "x");
      ("end_span", fun () -> Obs.end_span obs ~track:"t" "x");
      ("counter", fun () -> Obs.counter obs ~track:"t" "x" 3);
      ("add", fun () -> Obs.add obs "x" 3);
      ("add_float", fun () -> Obs.add_float obs "x" 2.5 ~per:1e9);
      ("mark", fun () -> Obs.mark obs ~n:3 "x");
      ("observe", fun () -> Obs.observe obs ~lo:0.5 ~hi:64.0 ~precision:0.001 "x" 2.5);
      ("start/observe_since", fun () -> Obs.observe_since obs "x" (Obs.start obs));
      ("depth", fun () -> Obs.depth obs ~track:"t" ~histogram:"x" 3);
      ("watch_bounded", fun () -> Obs.watch_bounded obs ~track:"t" q);
    ]

(* A VM exit builds no metric name and reads no clock without a sink:
   what is left is the boxed store of its own running [time_ns]. *)
let test_sinkless_vmexit_record () =
  let c = Bm_hyp.Vmexit.create_counters ~obs:(Obs.of_sim (Sim.create ())) () in
  let w = words_per_call (fun () -> Bm_hyp.Vmexit.record c Bm_hyp.Vmexit.Io_instruction) in
  check_bool (Printf.sprintf "%.2f words/call <= 2" w) true (w <= 2.0)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    qsuite "observability.histogram.prop"
      [
        prop_percentile_monotone;
        prop_merge_is_combined_stream;
        prop_percentile_within_observed;
        prop_below_lo_collapses;
        prop_add_n_equals_repeated_add;
      ];
    ( "observability.trace",
      [
        Alcotest.test_case "ring buffer drop accounting" `Quick test_ring_buffer_dropped;
        Alcotest.test_case "export_json is valid JSON" `Quick test_export_json_valid;
        Alcotest.test_case "export_json ts monotone per track" `Quick
          test_export_json_monotone_per_track;
      ] );
    ( "observability.metrics",
      [
        Alcotest.test_case "counters, histograms, meters" `Quick test_metrics_basics;
        Alcotest.test_case "merge" `Quick test_metrics_merge;
        Alcotest.test_case "merge rejects kind mismatch" `Quick test_metrics_merge_wrong_kind;
        Alcotest.test_case "table rows" `Quick test_metrics_render_shape;
      ] );
    ( "observability.probes",
      [
        Alcotest.test_case "sink-less probes allocate nothing" `Quick
          test_sinkless_probes_allocate_nothing;
        Alcotest.test_case "sink-less vmexit record" `Quick test_sinkless_vmexit_record;
      ] );
    ( "observability.determinism",
      [
        Alcotest.test_case "tracing does not perturb results" `Slow
          test_tracing_preserves_determinism;
      ] );
    ( "observability.datapath",
      [
        Alcotest.test_case "vm storage path records" `Quick test_vm_datapath_metrics;
        Alcotest.test_case "bm path covers all layers" `Slow test_bm_datapath_covers_layers;
      ] );
  ]
