(* The verified-string cache (Asc_core.Vcache) on its own: the per-pid
   bound, entries covering both the bytes and the tag, pid isolation on a
   drop, and an allocation-free hit. Its behaviour inside the checker —
   lifecycle hooks, accounting, and verdict parity with the reference
   checker — is tested with the rest of the deployed fast path in
   test_fastpath.ml. *)

module Vcache = Asc_core.Vcache

let mac_a = String.make 16 'a'
let mac_b = String.make 16 'b'
let str i = Printf.sprintf "/tmp/s%d" i
let create () = Vcache.create ~registry:(Asc_obs.Metrics.create ()) ()
let remember ?(pid = 1) vc i = Vcache.remember vc ~pid ~bytes:(str i) ~mac:mac_a
let hit ?(pid = 1) vc i = Vcache.check vc ~pid ~bytes:(str i) ~mac:mac_a

let test_bound_flushes_the_pid () =
  (* the string past pid 1's bound flushes pid 1's entries and is kept;
     pid 2's entry is untouched *)
  let vc = create () in
  let bound = Asc_core.Pid_table.bound in
  remember ~pid:2 vc 0;
  for i = 1 to bound do
    remember vc i
  done;
  Alcotest.(check int) "full" (bound + 1) (Vcache.size vc);
  Alcotest.(check int) "no eviction yet" 0 (Vcache.evictions vc);
  remember vc (bound + 1);
  Alcotest.(check int) "pid 1's table flushed" bound (Vcache.evictions vc);
  Alcotest.(check int) "the new entry and pid 2's remain" 2 (Vcache.size vc);
  Alcotest.(check bool) "an old entry misses" false (hit vc 1);
  Alcotest.(check bool) "the new entry hits" true (hit vc (bound + 1));
  Alcotest.(check bool) "pid 2 still warm" true (hit ~pid:2 vc 0)

let test_key_covers_tag () =
  (* the supplied tag is part of the entry: a tampered MAC misses even when
     the covered bytes match, and tampered bytes miss under the right MAC *)
  let vc = create () in
  Vcache.remember vc ~pid:1 ~bytes:"/bin/ls" ~mac:mac_a;
  Alcotest.(check bool) "same bytes, same tag" true
    (Vcache.check vc ~pid:1 ~bytes:"/bin/ls" ~mac:mac_a);
  Alcotest.(check bool) "same bytes, forged tag" false
    (Vcache.check vc ~pid:1 ~bytes:"/bin/ls" ~mac:mac_b);
  Alcotest.(check bool) "tampered string" false
    (Vcache.check vc ~pid:1 ~bytes:"/bin/sh" ~mac:mac_a);
  Alcotest.(check int) "hits counted" 1 (Vcache.hits vc);
  Alcotest.(check int) "misses counted" 2 (Vcache.misses vc)

let test_pid_isolation () =
  (* dropping pid 1 must drop exactly its entries: a recycled pid 1
     starts cold while pid 2's warm entries are untouched *)
  let vc = create () in
  remember ~pid:1 vc 1;
  remember ~pid:1 vc 2;
  remember ~pid:2 vc 1;
  Vcache.drop_pid vc 1;
  Alcotest.(check int) "two entries dropped" 2 (Vcache.invalidations vc);
  Alcotest.(check int) "pid 2's entry remains" 1 (Vcache.size vc);
  Alcotest.(check bool) "pid 1 cold" false (hit ~pid:1 vc 1);
  Alcotest.(check bool) "pid 2 still warm" true (hit ~pid:2 vc 1)

let test_hit_allocates_nothing () =
  let vc = create () in
  remember vc 1;
  let bytes = str 1 in
  let w0 = Asc_obs.Profile.minor_words () in
  for _ = 1 to 1000 do
    if not (Vcache.check vc ~pid:1 ~bytes ~mac:mac_a) then Alcotest.fail "missed"
  done;
  Alcotest.(check int) "minor words over 1000 hits" 0 (Asc_obs.Profile.minor_words () - w0)

let () =
  Alcotest.run "vcache"
    [ ( "unit",
        [ Alcotest.test_case "bound flushes only the full pid" `Quick test_bound_flushes_the_pid;
          Alcotest.test_case "key covers bytes and tag" `Quick test_key_covers_tag;
          Alcotest.test_case "pid isolation on invalidate" `Quick test_pid_isolation;
          Alcotest.test_case "a hit allocates nothing" `Quick test_hit_allocates_nothing ] ) ]
