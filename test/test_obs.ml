(* Tests for the observability library: the metrics registry (hot-path
   counters, gauges, fixed-bucket histograms), the bounded ring buffer, the
   span tracer and its exporters, and the self-contained JSON
   emitter/parser that backs them. *)

module Json = Asc_obs.Json
module Ring = Asc_obs.Ring
module Clock = Asc_obs.Clock
module Metrics = Asc_obs.Metrics
module Trace = Asc_obs.Trace

(* --- metrics registry --- *)

let test_counter_gauge () =
  let r = Metrics.create () in
  let c = Metrics.counter r "calls" in
  Metrics.inc c;
  Metrics.inc c;
  Metrics.add c 40;
  Alcotest.(check int) "counter" 42 (Metrics.counter_value c);
  Alcotest.(check (option int)) "by name" (Some 42) (Metrics.value r "calls");
  let g = Metrics.gauge r "depth" in
  Metrics.set g 7;
  Metrics.set g 3;
  Alcotest.(check int) "gauge keeps last" 3 (Metrics.gauge_value g);
  (* get-or-create returns the same cell *)
  Metrics.inc (Metrics.counter r "calls");
  Alcotest.(check int) "same handle" 43 (Metrics.counter_value c);
  Alcotest.(check (list string)) "names sorted" [ "calls"; "depth" ] (Metrics.names r)

let test_kind_mismatch () =
  let r = Metrics.create () in
  ignore (Metrics.counter r "x");
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Metrics: \"x\" already registered as another kind") (fun () ->
      ignore (Metrics.gauge r "x"))

let test_histogram_bucket_edges () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[ 10; 100; 1000 ] r "lat" in
  (* exactly on a bound lands in that bucket (bounds are inclusive) *)
  List.iter (Metrics.observe h) [ 0; 10; 11; 100; 1000; 1001 ];
  let s = Metrics.histogram_value h in
  Alcotest.(check (list (pair int int)))
    "bucket counts"
    [ (10, 2); (100, 2); (1000, 1) ]
    s.Metrics.h_buckets;
  Alcotest.(check int) "overflow" 1 s.Metrics.h_overflow;
  Alcotest.(check int) "count" 6 s.Metrics.h_count;
  Alcotest.(check int) "sum" (0 + 10 + 11 + 100 + 1000 + 1001) s.Metrics.h_sum;
  Alcotest.(check (option int)) "histograms have no scalar value" None (Metrics.value r "lat");
  (* the kernel observes once per allowed trap: an observation, in any
     bucket or the overflow, allocates nothing *)
  let w0 = Asc_obs.Profile.minor_words () in
  for v = 1 to 1100 do
    Metrics.observe h v
  done;
  Alcotest.(check int) "minor words over 1100 observations" 0
    (Asc_obs.Profile.minor_words () - w0)

let test_reset () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let h = Metrics.histogram r "h" in
  Metrics.add c 5;
  Metrics.observe h 123;
  Metrics.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_value h).Metrics.h_count;
  (* old handles still feed the registry *)
  Metrics.inc c;
  Alcotest.(check (option int)) "handle alive" (Some 1) (Metrics.value r "c")

let test_metrics_json () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "a") 3;
  Metrics.set (Metrics.gauge r "b") (-2);
  Metrics.observe (Metrics.histogram ~buckets:[ 5 ] r "c") 4;
  let doc = Metrics.to_json r in
  (* round-trips through the parser *)
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "metrics json does not parse: %s" e
  | Ok parsed ->
    let items = Option.get (Json.to_list parsed) in
    Alcotest.(check int) "three instruments" 3 (List.length items);
    let first = List.hd items in
    Alcotest.(check (option string)) "sorted by name" (Some "a")
      (Option.bind (Json.member "name" first) Json.to_str);
    Alcotest.(check (option int)) "counter value" (Some 3)
      (Option.bind (Json.member "value" first) Json.to_int)

let qcheck_histogram_conservation =
  (* whatever is observed, every observation lands in exactly one bucket:
     h_count = sum of bucket counts + h_overflow, and sum/count track the
     raw observations *)
  QCheck.Test.make ~name:"histogram count = buckets + overflow" ~count:200
    QCheck.(list (int_bound 5000))
    (fun obs ->
      let r = Metrics.create () in
      let h = Metrics.histogram ~buckets:[ 10; 100; 1000 ] r "lat" in
      List.iter (Metrics.observe h) obs;
      let s = Metrics.histogram_value h in
      let in_buckets = List.fold_left (fun acc (_, c) -> acc + c) 0 s.Metrics.h_buckets in
      s.Metrics.h_count = in_buckets + s.Metrics.h_overflow
      && s.Metrics.h_count = List.length obs
      && s.Metrics.h_sum = List.fold_left ( + ) 0 obs)

(* --- ring buffer --- *)

let test_ring () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Ring.to_list r);
  List.iter (Ring.push r) [ 4; 5 ];
  Alcotest.(check (list int)) "evicts oldest" [ 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "pushed counts everything" 5 (Ring.pushed r);
  Alcotest.(check int) "dropped" 2 (Ring.dropped r);
  Alcotest.(check int) "fold sees retained" 12 (Ring.fold (fun acc x -> acc + x) 0 r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "clear resets the totals" 0 (Ring.pushed r);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
      ignore (Ring.create ~capacity:0))

(* Against a list model: after any run of pushes and clears, the ring
   holds the newest [capacity] elements pushed since the last clear,
   oldest first, whichever way it is read, and counts every push since
   that clear, retained or evicted. Capacities up to 40 make the slots
   grow past their first 8 before the ring evicts. *)
let qcheck_ring_model =
  QCheck.Test.make ~name:"ring agrees with a list model" ~count:300
    QCheck.(pair (int_range 1 40) (list_of_size Gen.(0 -- 150) (option (int_bound 1000))))
    (fun (capacity, ops) ->
      let r = Ring.create ~capacity in
      let since_clear =
        List.fold_left
          (fun acc op ->
            match op with
            | Some x ->
              Ring.push r x;
              acc @ [ x ]
            | None ->
              Ring.clear r;
              [])
          [] ops
      in
      let n = List.length since_clear in
      let kept = List.filteri (fun i _ -> i >= n - capacity) since_clear in
      let iterated = ref [] in
      Ring.iter (fun x -> iterated := x :: !iterated) r;
      Ring.to_list r = kept
      && List.rev !iterated = kept
      && List.rev (Ring.fold (fun acc x -> x :: acc) [] r) = kept
      && Ring.length r = List.length kept
      && Ring.pushed r = n
      && Ring.dropped r = n - List.length kept)

(* --- span tracing + exporters --- *)

let test_span_clock () =
  let t = Trace.create () in
  let clock = Clock.create () in
  let v =
    Trace.span t ~cat:"phase" ~clock "outer" (fun () ->
        Clock.advance clock 10;
        Trace.span t ~clock "inner" (fun () ->
            Clock.advance clock 5;
            17))
  in
  Alcotest.(check int) "body result" 17 v;
  match Trace.events t with
  | [ inner; outer ] ->
    (* inner completes (and is recorded) first *)
    Alcotest.(check string) "inner name" "inner" inner.Trace.ev_name;
    Alcotest.(check int) "inner ts" 10 inner.Trace.ev_ts;
    Alcotest.(check int) "inner dur" 5 inner.Trace.ev_dur;
    Alcotest.(check string) "outer name" "outer" outer.Trace.ev_name;
    Alcotest.(check int) "outer ts" 0 outer.Trace.ev_ts;
    Alcotest.(check int) "outer dur" 15 outer.Trace.ev_dur
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_records_on_raise () =
  let t = Trace.create () in
  let clock = Clock.create () in
  (try
     Trace.span t ~clock "boom" (fun () ->
         Clock.advance clock 3;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Trace.length t);
  Alcotest.(check int) "duration kept" 3 (List.hd (Trace.events t)).Trace.ev_dur

let test_chrome_roundtrip () =
  let t = Trace.create () in
  Trace.complete t ~cat:"syscall" ~track:2
    ~args:[ ("site", Json.Int 0x40); ("verdict", Json.Str "allow \"quoted\"") ]
    ~name:"open" ~ts:100 ~dur:25 ();
  Trace.complete t ~name:"read" ~ts:125 ~dur:7 ();
  let s = Trace.chrome_string t in
  match Json.parse s with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok doc ->
    let events = Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list) in
    Alcotest.(check int) "two events" 2 (List.length events);
    let first = List.hd events in
    let get k conv = Option.bind (Json.member k first) conv in
    Alcotest.(check (option string)) "name" (Some "open") (get "name" Json.to_str);
    Alcotest.(check (option string)) "phase is complete" (Some "X") (get "ph" Json.to_str);
    Alcotest.(check (option int)) "ts" (Some 100) (get "ts" Json.to_int);
    Alcotest.(check (option int)) "dur" (Some 25) (get "dur" Json.to_int);
    Alcotest.(check (option int)) "tid" (Some 2) (get "tid" Json.to_int);
    let args = Option.get (get "args" Option.some) in
    Alcotest.(check (option string)) "escaped arg survives" (Some "allow \"quoted\"")
      (Option.bind (Json.member "verdict" args) Json.to_str)

let test_chrome_metadata () =
  let t = Trace.create () in
  Trace.name_process t "asc-kernel";
  Trace.name_track t ~track:2 "/bin/calc";
  Trace.name_track t ~track:1 "init";
  Trace.complete t ~name:"open" ~track:2 ~ts:0 ~dur:1 ();
  Alcotest.(check (option string)) "track name kept" (Some "/bin/calc")
    (Trace.track_name t ~track:2);
  Alcotest.(check (option string)) "unnamed track" None (Trace.track_name t ~track:9);
  match Json.parse (Trace.chrome_string t) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok doc ->
    let events = Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list) in
    Alcotest.(check int) "1 process + 2 thread metadata + 1 span" 4 (List.length events);
    let get ev k conv = Option.bind (Json.member k ev) conv in
    (match events with
     | [ proc; t1; t2; span ] ->
       Alcotest.(check (option string)) "process_name first" (Some "process_name")
         (get proc "name" Json.to_str);
       Alcotest.(check (option string)) "metadata phase" (Some "M") (get proc "ph" Json.to_str);
       Alcotest.(check (option string)) "process label" (Some "asc-kernel")
         (Option.bind (get proc "args" Option.some) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str));
       Alcotest.(check (option string)) "thread_name" (Some "thread_name")
         (get t1 "name" Json.to_str);
       Alcotest.(check (option int)) "tracks sorted" (Some 1) (get t1 "tid" Json.to_int);
       Alcotest.(check (option int)) "second track" (Some 2) (get t2 "tid" Json.to_int);
       Alcotest.(check (option string)) "track label" (Some "/bin/calc")
         (Option.bind (get t2 "args" Option.some) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str));
       Alcotest.(check (option string)) "span still X" (Some "X") (get span "ph" Json.to_str)
     | _ -> Alcotest.fail "unexpected event shape")

let test_json_lines () =
  let t = Trace.create () in
  Trace.complete t ~name:"a" ~ts:0 ~dur:1 ();
  Trace.complete t ~name:"b" ~ts:1 ~dur:2 ();
  let lines = String.split_on_char '\n' (String.trim (Trace.to_json_lines t)) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "line %S does not parse: %s" line e)
    lines

let test_trace_bounded () =
  let t = Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Trace.complete t ~name:"e" ~ts:i ~dur:1 ()
  done;
  Alcotest.(check int) "bounded" 2 (Trace.length t);
  Alcotest.(check int) "dropped" 3 (Trace.dropped t);
  Alcotest.(check (list int)) "newest kept" [ 4; 5 ]
    (List.map (fun e -> e.Trace.ev_ts) (Trace.events t))

(* --- baseline regression gate --- *)

module Baseline = Asc_obs.Baseline

let bench_doc rows =
  Json.Obj
    [ ("table", Json.Str "table4");
      ("rows",
       Json.List
         (List.map
            (fun (name, cycles) ->
              Json.Obj [ ("name", Json.Str name); ("cycles", Json.Int cycles) ])
            rows)) ]

let test_baseline_within_tolerance () =
  let base = bench_doc [ ("getpid", 1000); ("read", 7000) ] in
  let actual = bench_doc [ ("getpid", 1040); ("read", 6800) ] in
  (match Baseline.compare ~tolerance:5.0 ~baseline:base ~actual () with
   | Ok () -> ()
   | Error ps -> Alcotest.failf "4%% drift rejected at 5%%: %s" (String.concat "; " ps));
  (* Int and Float are numerically interchangeable *)
  match
    Baseline.compare ~tolerance:1.0 ~baseline:(Json.Obj [ ("x", Json.Int 10) ])
      ~actual:(Json.Obj [ ("x", Json.Float 10.0) ]) ()
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "10 vs 10.0 should compare equal"

let test_baseline_regression_detected () =
  let base = bench_doc [ ("getpid", 1000); ("read", 7000) ] in
  let actual = bench_doc [ ("getpid", 1200); ("read", 7000) ] in
  match Baseline.compare ~tolerance:10.0 ~baseline:base ~actual () with
  | Ok () -> Alcotest.fail "20% drift passed a 10% gate"
  | Error [ msg ] ->
    Alcotest.(check bool) "message names the path" true
      (String.length msg > 0 && String.sub msg 0 1 = "$")
  | Error ps -> Alcotest.failf "expected one problem, got %d" (List.length ps)

let test_baseline_near_zero_floor () =
  (* the max(...,1) floor keeps near-zero leaves from demanding equality *)
  match
    Baseline.compare ~tolerance:10.0 ~baseline:(Json.Obj [ ("x", Json.Int 0) ])
      ~actual:(Json.Obj [ ("x", Json.Float 0.05) ]) ()
  with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "tiny absolute drift rejected: %s" (String.concat "; " ps)

let test_baseline_abs_tolerance () =
  (* global absolute floor: a zero-expected leaf drifting by a few units
     passes with --tolerance-abs even though the drift is infinite in
     percent terms... *)
  (match
     Baseline.compare ~tolerance:1.0 ~tolerance_abs:8.0
       ~baseline:(Json.Obj [ ("words", Json.Int 0) ])
       ~actual:(Json.Obj [ ("words", Json.Int 6) ]) ()
   with
   | Ok () -> ()
   | Error ps -> Alcotest.failf "abs floor did not rescue 0->6: %s" (String.concat "; " ps));
  (* ...but drift beyond the floor still fails *)
  (match
     Baseline.compare ~tolerance:1.0 ~tolerance_abs:8.0
       ~baseline:(Json.Obj [ ("words", Json.Int 0) ])
       ~actual:(Json.Obj [ ("words", Json.Int 9) ]) ()
   with
   | Ok () -> Alcotest.fail "0->9 passed an abs floor of 8"
   | Error _ -> ());
  (* the floor is a disjunct: a large leaf still passes on percentage *)
  match
    Baseline.compare ~tolerance:10.0 ~tolerance_abs:8.0
      ~baseline:(Json.Obj [ ("cycles", Json.Int 10_000) ])
      ~actual:(Json.Obj [ ("cycles", Json.Int 10_500) ]) ()
  with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "5%% drift rejected at 10%%: %s" (String.concat "; " ps)

let test_baseline_schema_strict () =
  let check_fails name base actual =
    match Baseline.compare ~tolerance:100.0 ~baseline:base ~actual () with
    | Ok () -> Alcotest.failf "%s should fail regardless of tolerance" name
    | Error _ -> ()
  in
  check_fails "missing key"
    (Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2) ])
    (Json.Obj [ ("a", Json.Int 1) ]);
  check_fails "unexpected key"
    (Json.Obj [ ("a", Json.Int 1) ])
    (Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2) ]);
  check_fails "list length" (Json.List [ Json.Int 1 ]) (Json.List [ Json.Int 1; Json.Int 2 ]);
  check_fails "kind change" (Json.Obj [ ("a", Json.Str "x") ]) (Json.Obj [ ("a", Json.Int 3) ]);
  check_fails "string change"
    (Json.Obj [ ("name", Json.Str "getpid") ])
    (Json.Obj [ ("name", Json.Str "getppid") ]);
  check_fails "bool change" (Json.Bool true) (Json.Bool false);
  (* every offending leaf is reported, not just the first *)
  match
    Baseline.compare ~tolerance:1.0
      ~baseline:(bench_doc [ ("a", 100); ("b", 100) ])
      ~actual:(bench_doc [ ("a", 200); ("b", 300) ]) ()
  with
  | Error [ _; _ ] -> ()
  | Error ps -> Alcotest.failf "expected 2 problems, got %d" (List.length ps)
  | Ok () -> Alcotest.fail "regressions not detected"

(* --- JSON parser --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\nd\tune\x01deux");
        ("i", Json.Int (-123));
        ("big", Json.Int max_int);
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
        ("empty", Json.Obj []) ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "round-trip equal" true (parsed = doc)
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e

let test_json_unicode_escape () =
  match Json.parse {|"a\u00e9A\u20ac"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "utf-8 decoded" "a\xc3\xa9A\xe2\x82\xac" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "01"; "{\"a\" 1}"; "" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    bad;
  (* trailing garbage is rejected *)
  match Json.parse "1 2" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ()

let qcheck_json_roundtrip =
  (* strings chosen to exercise escaping; structure exercises nesting *)
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [ return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) int;
                map (fun s -> Json.Str s) (string_size (0 -- 10)) ]
          in
          if n = 0 then leaf
          else
            frequency
              [ (2, leaf);
                (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  map
                    (fun kvs -> Json.Obj kvs)
                    (list_size (0 -- 4)
                       (pair (string_size (0 -- 6)) (self (n / 2)))) ) ]))
  in
  QCheck.Test.make ~name:"json print/parse round-trip" ~count:200 (QCheck.make gen) (fun doc ->
      match Json.parse (Json.to_string doc) with
      | Ok parsed -> parsed = doc
      | Error _ -> false)

(* --- quantile estimation --- *)

let test_log_linear_buckets () =
  let b = Metrics.log_linear_buckets ~lo:100 ~hi:1_000_000 in
  (* strictly increasing, starts at lo, terminated by hi *)
  Alcotest.(check int) "first" 100 (List.hd b);
  Alcotest.(check int) "last" 1_000_000 (List.nth b (List.length b - 1));
  ignore
    (List.fold_left
       (fun prev x ->
         Alcotest.(check bool) "strictly increasing" true (x > prev);
         x)
       0 b);
  (* within a decade the bounds are the multiples of the decade, so the
     containing bucket of any v is at most one leading-digit step wide *)
  Alcotest.(check bool) "300 is a bound" true (List.mem 300 b);
  Alcotest.(check bool) "30_000 is a bound" true (List.mem 30_000 b);
  Alcotest.check_raises "lo < 1 rejected"
    (Invalid_argument "Metrics.log_linear_buckets: lo must be >= 1") (fun () ->
      ignore (Metrics.log_linear_buckets ~lo:0 ~hi:10))

(* The documented accuracy contract: the estimate and the true quantile
   share a bucket, so |estimate - exact| <= that bucket's width. Checked
   against the exact (sorted-order) quantile on random samples. *)
let qcheck_quantile_error_bound =
  QCheck.Test.make ~name:"quantile estimate within containing bucket width" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 200) (int_range 1 900_000))
              (int_range 0 100))
    (fun (sample, qpct) ->
      QCheck.assume (sample <> []);
      let q = float_of_int qpct /. 100.0 in
      let buckets = Metrics.log_linear_buckets ~lo:100 ~hi:1_000_000 in
      let r = Metrics.create () in
      let h = Metrics.histogram ~buckets r "q" in
      List.iter (Metrics.observe h) sample;
      let snap = Metrics.histogram_value h in
      let est = Metrics.quantile snap q in
      (* exact q-quantile: the ceil(q*n)-th smallest observation *)
      let sorted = List.sort compare sample in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let exact = List.nth sorted (rank - 1) in
      (* width of the bucket containing the exact observation *)
      let rec width lo = function
        | [] -> max_int (* overflow bucket: estimate clamps to last bound *)
        | b :: rest -> if exact <= b then b - lo else width b rest
      in
      let w = width 0 buckets in
      if w = max_int then est = 1_000_000
      else abs (est - exact) <= w)

let test_quantile_exact_cases () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[ 10; 20; 30 ] r "q" in
  Alcotest.(check int) "empty histogram" 0 (Metrics.quantile (Metrics.histogram_value h) 0.5);
  List.iter (Metrics.observe h) [ 5; 15; 25 ];
  let snap = Metrics.histogram_value h in
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.quantile: q outside [0,1]") (fun () ->
      ignore (Metrics.quantile snap 1.5));
  (* p100 of a sample whose max is 25 lands in the (20,30] bucket *)
  let p100 = Metrics.quantile snap 1.0 in
  Alcotest.(check bool) "p100 in max's bucket" true (p100 > 20 && p100 <= 30)

let () =
  Alcotest.run "asc_obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter + gauge" `Quick test_counter_gauge;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "reset keeps handles" `Quick test_reset;
          Alcotest.test_case "to_json round-trips" `Quick test_metrics_json;
          QCheck_alcotest.to_alcotest qcheck_histogram_conservation ] );
      ( "quantiles",
        [ Alcotest.test_case "log-linear bucket layout" `Quick test_log_linear_buckets;
          Alcotest.test_case "edge cases" `Quick test_quantile_exact_cases;
          QCheck_alcotest.to_alcotest qcheck_quantile_error_bound ] );
      ( "ring",
        [ Alcotest.test_case "bounded fifo" `Quick test_ring;
          QCheck_alcotest.to_alcotest qcheck_ring_model ] );
      ( "trace",
        [ Alcotest.test_case "span clock arithmetic" `Quick test_span_clock;
          Alcotest.test_case "span records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "chrome metadata events" `Quick test_chrome_metadata;
          Alcotest.test_case "json-lines" `Quick test_json_lines;
          Alcotest.test_case "bounded collector" `Quick test_trace_bounded ] );
      ( "baseline",
        [ Alcotest.test_case "within tolerance" `Quick test_baseline_within_tolerance;
          Alcotest.test_case "regression detected" `Quick test_baseline_regression_detected;
          Alcotest.test_case "near-zero floor" `Quick test_baseline_near_zero_floor;
          Alcotest.test_case "global absolute floor" `Quick test_baseline_abs_tolerance;
          Alcotest.test_case "schema must match exactly" `Quick test_baseline_schema_strict ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
          Alcotest.test_case "malformed inputs" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip ] ) ]
