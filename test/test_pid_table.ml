(* The per-pid table under every fast-path layer (Asc_core.Pid_table):
   first writer wins, the bound flushes one pid only, drops are counted,
   probes create nothing, and a hit allocates nothing. *)

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

let () =
  Alcotest.run "pid_table"
    [ ( "unit",
        [ Alcotest.test_case "first writer wins" `Quick test_first_writer_wins;
          Alcotest.test_case "a full pid is flushed into evictions" `Quick
            test_bound_flushes_one_pid;
          Alcotest.test_case "drop_pid counts invalidations" `Quick test_drop_pid_counts;
          Alcotest.test_case "probing an unknown pid creates no table" `Quick
            test_probe_creates_nothing;
          Alcotest.test_case "1000 hits allocate nothing" `Quick test_hit_allocates_nothing ] ) ]
