(* The per-pid table under every fast-path layer (Asc_core.Pid_table):
   first writer wins, the bound flushes one pid only, drops are counted
   and forget the pid served last, probes create nothing, and a hit
   allocates nothing. The shared facts
   table: keyed by (site, block id), first writer wins, and its global
   bound flushes the whole table into its eviction counter. *)

module Pid_table = Asc_core.Pid_table
module Metrics = Asc_obs.Metrics

let create () =
  let registry = Metrics.create () in
  (registry, (Pid_table.create registry ~prefix:"layer" : (int, string) Pid_table.t))

let value registry name = Option.get (Metrics.value registry name)

let test_first_writer_wins () =
  let _, t = create () in
  Pid_table.add t ~pid:1 7 "first";
  Pid_table.add t ~pid:1 7 "second";
  Alcotest.(check string) "the first entry stays" "first" (Pid_table.find t ~pid:1 7);
  Alcotest.(check int) "one entry" 1 (Pid_table.size t)

let test_bound_flushes_one_pid () =
  let registry, t = create () in
  Pid_table.add t ~pid:2 0 "other";
  for k = 1 to Pid_table.bound do
    Pid_table.add t ~pid:1 k "x"
  done;
  Alcotest.(check int) "no eviction at the bound" 0 (value registry "layer.evictions");
  Pid_table.add t ~pid:1 0 "late";
  Alcotest.(check int) "pid 1's entries evicted" Pid_table.bound
    (value registry "layer.evictions");
  Alcotest.(check int) "size gauge" 2 (value registry "layer.size");
  Alcotest.(check string) "the late entry is kept" "late" (Pid_table.find t ~pid:1 0);
  Alcotest.(check bool) "an old entry is gone" false (Pid_table.mem t ~pid:1 1);
  Alcotest.(check string) "pid 2 untouched" "other" (Pid_table.find t ~pid:2 0)

let test_drop_pid_counts () =
  let registry, t = create () in
  Pid_table.add t ~pid:1 1 "a";
  Pid_table.add t ~pid:1 2 "b";
  Pid_table.add t ~pid:2 1 "c";
  Pid_table.drop_pid t 1;
  Pid_table.drop_pid t 3;
  Alcotest.(check int) "pid 1's two entries" 2 (value registry "layer.invalidations");
  Alcotest.(check int) "pid 2 remains" 1 (Pid_table.size t);
  Alcotest.(check int) "one table left" 1 (Pid_table.pids t);
  Alcotest.check_raises "pid 1 is empty" Not_found (fun () ->
      ignore (Pid_table.find t ~pid:1 1))

(* The table answers for the pid it served last without a lookup; a drop
   of that pid must not leave the answer behind, nor must a drop of
   another pid disturb it. *)
let test_drop_served_pid () =
  let _, t = create () in
  Pid_table.add t ~pid:1 7 "a";
  Pid_table.add t ~pid:2 7 "b";
  Alcotest.(check string) "pid 2 served" "b" (Pid_table.find t ~pid:2 7);
  Pid_table.drop_pid t 2;
  Alcotest.check_raises "the dropped pid finds nothing" Not_found (fun () ->
      ignore (Pid_table.find t ~pid:2 7));
  Alcotest.(check bool) "nor has it an entry" false (Pid_table.mem t ~pid:2 7);
  Alcotest.(check string) "pid 1 keeps its entry" "a" (Pid_table.find t ~pid:1 7);
  Pid_table.drop_pid t 2;
  Alcotest.(check string) "a second drop leaves pid 1 served" "a" (Pid_table.find t ~pid:1 7);
  Pid_table.add t ~pid:2 8 "c";
  Alcotest.(check string) "pid 2 starts a new table" "c" (Pid_table.find t ~pid:2 8);
  Alcotest.(check bool) "without its old entry" false (Pid_table.mem t ~pid:2 7);
  Alcotest.(check int) "two tables" 2 (Pid_table.pids t)

let test_probe_creates_nothing () =
  let _, t = create () in
  Alcotest.check_raises "find on an unknown pid" Not_found (fun () ->
      ignore (Pid_table.find t ~pid:9 1));
  Alcotest.(check bool) "mem on an unknown pid" false (Pid_table.mem t ~pid:9 1);
  Alcotest.(check int) "no table created" 0 (Pid_table.pids t)

let test_hit_allocates_nothing () =
  let _, t = create () in
  Pid_table.add t ~pid:1 42 "v";
  let w0 = Asc_obs.Profile.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Pid_table.find t ~pid:1 42))
  done;
  Alcotest.(check int) "minor words over 1000 hits" 0 (Asc_obs.Profile.minor_words () - w0)

let create_shared () =
  let registry = Metrics.create () in
  (registry, (Pid_table.Shared.create registry ~prefix:"layer" : string Pid_table.Shared.t))

let test_shared_keys () =
  let registry, t = create_shared () in
  Alcotest.check_raises "a new table holds nothing" Not_found (fun () ->
      ignore (Pid_table.Shared.find t ~site:0x40 ~block:1));
  Pid_table.Shared.add t ~site:0x40 ~block:1 "a";
  Pid_table.Shared.add t ~site:0x40 ~block:2 "b";
  Pid_table.Shared.add t ~site:0x40 ~block:1 "late";
  Alcotest.(check string) "first writer wins" "a" (Pid_table.Shared.find t ~site:0x40 ~block:1);
  Alcotest.(check string) "a second block at the site" "b"
    (Pid_table.Shared.find t ~site:0x40 ~block:2);
  Alcotest.check_raises "another site" Not_found (fun () ->
      ignore (Pid_table.Shared.find t ~site:0x44 ~block:1));
  Alcotest.(check int) "two facts" 2 (Pid_table.Shared.size t);
  Pid_table.Shared.note_hit t;
  Alcotest.(check int) "hits in the registry" 1 (value registry "layer.shared_hits")

let test_shared_bound () =
  let registry, t = create_shared () in
  for i = 1 to Pid_table.Shared.bound do
    Pid_table.Shared.add t ~site:i ~block:0 "x"
  done;
  Alcotest.(check int) "no eviction at the bound" 0 (value registry "layer.shared_evictions");
  Pid_table.Shared.add t ~site:0 ~block:0 "late";
  Alcotest.(check int) "every fact evicted" Pid_table.Shared.bound
    (value registry "layer.shared_evictions");
  Alcotest.(check int) "the late fact is kept" 1 (Pid_table.Shared.size t);
  Alcotest.(check string) "and found" "late" (Pid_table.Shared.find t ~site:0 ~block:0)

let () =
  Alcotest.run "pid_table"
    [ ( "unit",
        [ Alcotest.test_case "first writer wins" `Quick test_first_writer_wins;
          Alcotest.test_case "a full pid is flushed into evictions" `Quick
            test_bound_flushes_one_pid;
          Alcotest.test_case "drop_pid counts invalidations" `Quick test_drop_pid_counts;
          Alcotest.test_case "a dropped pid served last finds nothing" `Quick
            test_drop_served_pid;
          Alcotest.test_case "probing an unknown pid creates no table" `Quick
            test_probe_creates_nothing;
          Alcotest.test_case "1000 hits allocate nothing" `Quick test_hit_allocates_nothing ] );
      ( "shared",
        [ Alcotest.test_case "keyed by (site, block), first writer wins" `Quick
            test_shared_keys;
          Alcotest.test_case "the global bound flushes the table" `Quick test_shared_bound ] ) ]
