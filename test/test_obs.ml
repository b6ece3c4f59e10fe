(* Tests for the observability library: the metrics registry (hot-path
   counters, gauges, fixed-bucket histograms), the bounded ring buffer, the
   span tracer and its exporters, and the self-contained JSON
   emitter/parser that backs them. *)

module Json = Asc_obs.Json
module Ring = Asc_obs.Ring
module Clock = Asc_obs.Clock
module Metrics = Asc_obs.Metrics
module Trace = Asc_obs.Trace
module Authlog = Asc_obs.Authlog

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
  Alcotest.(check (option int)) "histograms have no scalar value" None (Metrics.value r "lat")

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

let test_baseline_per_field_spec () =
  let spec value kind max =
    Json.Obj
      [ ("value", value);
        ("tolerance", Json.Obj [ ("kind", Json.Str kind); ("max", Json.Int max) ]) ]
  in
  (* per-field abs spec admits small drift on a zero-expected leaf even
     with no global tolerances at all *)
  (match
     Baseline.compare ~tolerance:0.0
       ~baseline:(Json.Obj [ ("words", spec (Json.Int 0) "abs" 8) ])
       ~actual:(Json.Obj [ ("words", Json.Int 5) ]) ()
   with
   | Ok () -> ()
   | Error ps -> Alcotest.failf "abs spec did not admit 0->5: %s" (String.concat "; " ps));
  (* and rejects drift beyond its own max, even when the global gates are
     wide open — the spec overrides them *)
  (match
     Baseline.compare ~tolerance:100.0 ~tolerance_abs:1000.0
       ~baseline:(Json.Obj [ ("words", spec (Json.Int 0) "abs" 8) ])
       ~actual:(Json.Obj [ ("words", Json.Int 20) ]) ()
   with
   | Ok () -> Alcotest.fail "abs spec max=8 admitted a drift of 20"
   | Error _ -> ());
  (* pct specs use the same formula as the global percentage gate *)
  (match
     Baseline.compare ~tolerance:0.0
       ~baseline:(Json.Obj [ ("cycles", spec (Json.Int 1000) "pct" 10) ])
       ~actual:(Json.Obj [ ("cycles", Json.Int 1050) ]) ()
   with
   | Ok () -> ()
   | Error ps -> Alcotest.failf "pct spec rejected 5%% drift: %s" (String.concat "; " ps));
  (* an object that merely resembles a spec (wrong keys) is still compared
     structurally, so typos fail loudly instead of passing silently *)
  match
    Baseline.compare ~tolerance:100.0
      ~baseline:(Json.Obj [ ("x", Json.Obj [ ("value", Json.Int 1) ]) ])
      ~actual:(Json.Obj [ ("x", Json.Int 1) ]) ()
  with
  | Ok () -> Alcotest.fail "non-spec object compared as a spec"
  | Error _ -> ()

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

(* --- tamper-evident audit chain --- *)

let auth_key = Asc_crypto.Cmac.of_raw "0123456789abcdef"

let auth_entry i = Json.Obj [ ("kind", Json.Str "event"); ("n", Json.Int i) ]

let export_of ?capacity n =
  let log = Authlog.create ~key:auth_key ?capacity () in
  for i = 1 to n do
    Authlog.append log (auth_entry i)
  done;
  (log, Authlog.export_string log)

let nonempty_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let check_verifies what ?expect_head expect_n exported =
  match Authlog.verify_string ?expect_head ~key:auth_key exported with
  | Ok n -> Alcotest.(check int) what expect_n n
  | Error e -> Alcotest.failf "%s: %a" what Authlog.pp_verify_error e

let check_tampered what ?expect_head exported =
  match Authlog.verify_string ?expect_head ~key:auth_key exported with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "%s: verified %d records of a doctored log" what n

let test_authlog_chain () =
  let log, exported = export_of 5 in
  Alcotest.(check int) "length" 5 (Authlog.length log);
  Alcotest.(check int) "appended" 5 (Authlog.appended log);
  check_verifies "pristine chain" 5 exported;
  check_verifies "with out-of-band head" ~expect_head:(Authlog.hex (Authlog.head_mac log)) 5
    exported;
  check_tampered "wrong expected head" ~expect_head:(String.make 32 '0') exported;
  (* the empty chain exports a verifiable header + trailer *)
  let _, empty = export_of 0 in
  check_verifies "empty chain" 0 empty;
  (* a different key must refuse the chain *)
  (match Authlog.verify_string ~key:(Asc_crypto.Cmac.of_raw "fedcba9876543210") exported with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "verified under the wrong key")

let test_authlog_eviction () =
  let log, exported = export_of ~capacity:3 10 in
  Alcotest.(check int) "retained" 3 (Authlog.length log);
  Alcotest.(check int) "appended survives eviction" 10 (Authlog.appended log);
  (* the anchor is the chain value of the last evicted record (seq 7) *)
  (match nonempty_lines exported with
   | header :: _ ->
     let j = Result.get_ok (Json.parse header) in
     Alcotest.(check (option int)) "anchor seq" (Some 7)
       (Option.bind (Json.member "anchor_seq" j) Json.to_int)
   | [] -> Alcotest.fail "empty export");
  check_verifies "chain verifies after eviction" 3 exported

let test_authlog_bitflip () =
  let _, exported = export_of 4 in
  (* a single flipped bit anywhere in the file must be detected; vary the
     flipped bit with the position so every bit index is exercised too *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string exported in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
      check_tampered (Printf.sprintf "bit flip at byte %d" i) (Bytes.to_string b))
    exported

let test_authlog_truncation () =
  let log, exported = export_of 4 in
  let lines = nonempty_lines exported in
  let rejoin ls = String.concat "\n" ls ^ "\n" in
  let n = List.length lines in
  (* dropping the trailer (or the trailer plus records) must be detected *)
  check_tampered "no trailer" (rejoin (List.filteri (fun i _ -> i < n - 1) lines));
  check_tampered "last record cut, trailer kept"
    (rejoin (List.filteri (fun i _ -> i <> n - 2) lines));
  (* the one file-only blind spot: truncate to a prefix AND forge the
     trailer from a chain value visible in that prefix. The file alone
     verifies — the out-of-band head commitment is what catches it. *)
  let kept_record = List.nth lines 2 (* header, record 1, record 2 *) in
  let j = Result.get_ok (Json.parse kept_record) in
  let seq = Option.get (Option.bind (Json.member "seq" j) Json.to_int) in
  let mac = Option.get (Option.bind (Json.member "mac" j) Json.to_str) in
  let forged_trailer =
    Json.to_string
      (Json.Obj [ ("kind", Json.Str "head"); ("seq", Json.Int seq); ("mac", Json.Str mac) ])
  in
  let forged = rejoin (List.filteri (fun i _ -> i < 3) lines @ [ forged_trailer ]) in
  check_verifies "forged-trailer prefix passes the file-only check" 2 forged;
  check_tampered "out-of-band head catches the forged trailer"
    ~expect_head:(Authlog.hex (Authlog.head_mac log)) forged

let test_authlog_reorder () =
  let _, exported = export_of 4 in
  let lines = nonempty_lines exported in
  (* swap records 2 and 3 (lines 2 and 3 after the header) *)
  let swapped =
    List.mapi
      (fun i l -> if i = 2 then List.nth lines 3 else if i = 3 then List.nth lines 2 else l)
      lines
  in
  check_tampered "reordered records" (String.concat "\n" swapped ^ "\n")

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

(* --- differential profiles --- *)

module Diffprof = Asc_obs.Diffprof

let find_delta key ds = List.find_opt (fun (d : Diffprof.delta) -> d.Diffprof.d_key = key) ds

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_diffprof_rollups () =
  let base =
    [ ([ "main"; "f"; "<kernel:call_mac>" ], 100);
      ([ "main"; "getpid@site_0x40"; "<kernel:control_flow>" ], 200);
      ([ "main"; "g" ], 50) ]
  in
  let actual =
    [ ([ "main"; "f"; "<kernel:call_mac>" ], 100);
      ([ "main"; "getpid@site_0x40"; "<kernel:control_flow>" ], 320);
      ([ "main"; "h" ], 30) ]
  in
  let rp = Diffprof.diff ~base ~actual ~resource:"cycles" () in
  Alcotest.(check int) "total base" 350 rp.Diffprof.rp_total_base;
  Alcotest.(check int) "total actual" 450 rp.Diffprof.rp_total_actual;
  (* the control-flow stack moved most and ranks first in every rollup *)
  (match rp.Diffprof.rp_stacks with
   | top :: _ ->
     Alcotest.(check int) "top stack delta" 120 (Diffprof.d_delta top);
     Alcotest.(check string) "top stack key"
       "main;getpid@site_0x40;<kernel:control_flow>" top.Diffprof.d_key
   | [] -> Alcotest.fail "no stack deltas");
  (match find_delta "<kernel:control_flow>" rp.Diffprof.rp_steps with
   | Some d ->
     Alcotest.(check int) "step delta" 120 (Diffprof.d_delta d);
     Alcotest.(check (float 0.01)) "step rel pct" 60.0 (Diffprof.d_rel d)
   | None -> Alcotest.fail "control_flow step missing");
  (* sites aggregate inclusively: the step frame below the site charges it *)
  (match find_delta "getpid@site_0x40" rp.Diffprof.rp_sites with
   | Some d -> Alcotest.(check int) "site delta inclusive" 120 (Diffprof.d_delta d)
   | None -> Alcotest.fail "site rollup missing");
  (* one-sided stacks survive as whole-weight deltas *)
  (match find_delta "g" rp.Diffprof.rp_frames with
   | Some d -> Alcotest.(check int) "removed frame" (-50) (Diffprof.d_delta d)
   | None -> Alcotest.fail "removed frame missing");
  (match find_delta "h" rp.Diffprof.rp_frames with
   | Some d -> Alcotest.(check int) "added frame" 30 (Diffprof.d_delta d)
   | None -> Alcotest.fail "added frame missing");
  Alcotest.(check bool) "not empty" false (Diffprof.is_empty rp);
  (* a noise floor above the largest delta silences the whole report *)
  let quiet = Diffprof.diff ~noise:120 ~base ~actual ~resource:"cycles" () in
  Alcotest.(check bool) "floored stacks gone" true (quiet.Diffprof.rp_stacks = []);
  (* the folded output carries signed weights in ranked order *)
  let folded = Diffprof.folded_diff rp in
  Alcotest.(check bool) "folded has signed top line" true
    (String.length folded > 0
    && String.sub folded 0 (String.length "main;getpid@site_0x40;<kernel:control_flow> +120")
       = "main;getpid@site_0x40;<kernel:control_flow> +120");
  Alcotest.(check bool) "blame table mentions the step" true
    (contains (Diffprof.blame_table rp) "<kernel:control_flow>")

let test_diffprof_of_json () =
  let profile =
    Json.Obj
      [ ("total_cycles", Json.Int 10);
        ("total_alloc_words", Json.Int 4);
        ( "stacks",
          Json.List
            [ Json.Obj
                [ ("stack", Json.List [ Json.Str "main"; Json.Str "f" ]);
                  ("cycles", Json.Int 10) ] ] );
        ( "alloc_stacks",
          Json.List
            [ Json.Obj
                [ ("stack", Json.List [ Json.Str "main" ]); ("words", Json.Int 4) ] ] ) ]
  in
  (* both the bare export and the asc_profile --json wrapper load *)
  let check_side what j =
    match Diffprof.of_json j with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok side ->
      Alcotest.(check int) (what ^ " cycles entries") 1 (List.length side.Diffprof.s_cycles);
      Alcotest.(check int) (what ^ " alloc entries") 1 (List.length side.Diffprof.s_alloc)
  in
  check_side "bare" profile;
  check_side "wrapped" (Json.Obj [ ("tool", Json.Str "asc-profile"); ("profile", profile) ]);
  (match Diffprof.of_json (Json.Obj [ ("nope", Json.Int 1) ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "schema-less document loaded");
  let side = Result.get_ok (Diffprof.of_json profile) in
  let cyc, words = Diffprof.diff_sides ~base:side ~actual:side () in
  Alcotest.(check bool) "self diff cycles empty" true (Diffprof.is_empty cyc);
  Alcotest.(check bool) "self diff words empty" true (Diffprof.is_empty words)

let test_diffprof_doc () =
  let doc a b =
    Json.Obj
      [ ( "rows",
          Json.List
            [ Json.Obj
                [ ("name", Json.Str "getpid");
                  ( "verification",
                    Json.Obj [ ("control_flow", Json.Int a); ("call_mac", Json.Int b) ] ) ] ] ) ]
  in
  let deltas = Diffprof.diff_doc ~base:(doc 100 40) ~actual:(doc 160 42) in
  (match deltas with
   | top :: _ ->
     Alcotest.(check string) "largest mover first"
       "$.rows[0].verification.control_flow" top.Diffprof.l_path;
     Alcotest.(check (float 0.001)) "signed delta" 60.0
       (top.Diffprof.l_actual -. top.Diffprof.l_base);
     Alcotest.(check (option string)) "step classified" (Some "control_flow")
       (Diffprof.step_of_path top.Diffprof.l_path)
   | [] -> Alcotest.fail "no doc deltas");
  Alcotest.(check int) "both movers found" 2 (List.length deltas);
  Alcotest.(check string) "empty diff renders empty" ""
    (Diffprof.render_doc_blame (Diffprof.diff_doc ~base:(doc 1 2) ~actual:(doc 1 2)));
  let blame = Diffprof.render_doc_blame deltas in
  Alcotest.(check bool) "blame tags the step frame" true
    (contains blame "[<kernel:control_flow>]")

(* frames drawn from the shapes the profiler really emits, plus
   arbitrary names *)
let frame_gen =
  QCheck.Gen.(
    oneof
      [ oneofl [ "<kernel:call_mac>"; "<kernel:string_mac>"; "<kernel:control_flow>";
                 "<kernel:ext>" ];
        map2 (Printf.sprintf "%s@site_0x%x") (oneofl [ "getpid"; "open"; "write" ])
          (int_bound 0xffff);
        oneofl [ "main"; "f"; "g"; "interpret"; "dispatch" ] ])

let entries_gen =
  QCheck.Gen.(
    list_size (0 -- 12)
      (pair (list_size (1 -- 5) frame_gen) (int_range 0 10_000)))

let qcheck_diffprof_self_empty =
  QCheck.Test.make ~name:"diff of a profile against itself is empty" ~count:200
    (QCheck.make QCheck.Gen.(pair entries_gen (int_bound 50)))
    (fun (entries, noise) ->
      let rp = Diffprof.diff ~noise ~base:entries ~actual:entries ~resource:"cycles" () in
      Diffprof.is_empty rp && Diffprof.folded_diff rp = "" && Diffprof.blame_table rp = "")

let qcheck_diffprof_stack_conservation =
  (* with no noise floor, the per-stack deltas account exactly for the
     total movement between the two sides *)
  QCheck.Test.make ~name:"stack deltas sum to the total delta at noise 0" ~count:200
    (QCheck.make QCheck.Gen.(pair entries_gen entries_gen))
    (fun (base, actual) ->
      let rp = Diffprof.diff ~base ~actual ~resource:"cycles" () in
      let sum = List.fold_left (fun acc d -> acc + Diffprof.d_delta d) 0 rp.Diffprof.rp_stacks in
      sum = rp.Diffprof.rp_total_actual - rp.Diffprof.rp_total_base)

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
      ("ring", [ Alcotest.test_case "bounded fifo" `Quick test_ring ]);
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
          Alcotest.test_case "per-field tolerance spec" `Quick test_baseline_per_field_spec;
          Alcotest.test_case "schema must match exactly" `Quick test_baseline_schema_strict ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
          Alcotest.test_case "malformed inputs" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip ] );
      ( "authlog",
        [ Alcotest.test_case "chain verifies" `Quick test_authlog_chain;
          Alcotest.test_case "eviction promotes the anchor" `Quick test_authlog_eviction;
          Alcotest.test_case "single-bit flips detected" `Quick test_authlog_bitflip;
          Alcotest.test_case "truncation detected" `Quick test_authlog_truncation;
          Alcotest.test_case "reordering detected" `Quick test_authlog_reorder ] );
      ( "diffprof",
        [ Alcotest.test_case "rollups + ranking + noise floor" `Quick test_diffprof_rollups;
          Alcotest.test_case "profile json loading" `Quick test_diffprof_of_json;
          Alcotest.test_case "document attribution" `Quick test_diffprof_doc;
          QCheck_alcotest.to_alcotest qcheck_diffprof_self_empty;
          QCheck_alcotest.to_alcotest qcheck_diffprof_stack_conservation ] ) ]
