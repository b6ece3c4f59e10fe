(* The verified-string cache (Asc_core.Vcache) on its own: LRU eviction
   at capacity, entries covering both the bytes and the tag, pid
   isolation on invalidation, and the capacity bound. Its behaviour inside
   the checker — lifecycle hooks, accounting, and verdict parity with the
   reference checker — is tested with the rest of the deployed fast path
   in test_fastpath.ml. *)

module Vcache = Asc_core.Vcache

let mac_a = String.make 16 'a'
let mac_b = String.make 16 'b'
let str i = Printf.sprintf "/tmp/s%d" i
let remember ?(pid = 1) vc i = Vcache.remember vc ~pid ~bytes:(str i) ~mac:mac_a
let hit ?(pid = 1) vc i = Vcache.check vc ~pid ~bytes:(str i) ~mac:mac_a

let test_lru_eviction () =
  let vc = Vcache.create ~capacity:2 ~registry:(Asc_obs.Metrics.create ()) () in
  remember vc 1;
  remember vc 2;
  Alcotest.(check int) "full" 2 (Vcache.size vc);
  (* touch entry 1 so entry 2 becomes least-recently-used *)
  Alcotest.(check bool) "entry 1 hits" true (hit vc 1);
  remember vc 3;
  Alcotest.(check int) "still bounded" 2 (Vcache.size vc);
  Alcotest.(check int) "one eviction" 1 (Vcache.evictions vc);
  Alcotest.(check bool) "LRU entry 2 evicted" false (hit vc 2);
  Alcotest.(check bool) "entry 1 survives" true (hit vc 1);
  Alcotest.(check bool) "entry 3 present" true (hit vc 3)

let test_key_covers_tag () =
  (* the supplied tag is part of the entry: a tampered MAC misses even when
     the covered bytes match, and tampered bytes miss under the right MAC *)
  let vc = Vcache.create ~capacity:8 ~registry:(Asc_obs.Metrics.create ()) () in
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
  (* invalidating pid 1 must drop exactly its entries: a recycled pid 1
     starts cold while pid 2's warm entries are untouched *)
  let vc = Vcache.create ~capacity:8 ~registry:(Asc_obs.Metrics.create ()) () in
  remember ~pid:1 vc 1;
  remember ~pid:1 vc 2;
  remember ~pid:2 vc 1;
  Vcache.invalidate_pid vc 1;
  Alcotest.(check int) "two entries dropped" 2 (Vcache.invalidations vc);
  Alcotest.(check int) "pid 2's entry remains" 1 (Vcache.size vc);
  Alcotest.(check bool) "pid 1 cold" false (hit ~pid:1 vc 1);
  Alcotest.(check bool) "pid 2 still warm" true (hit ~pid:2 vc 1)

let test_capacity_validated () =
  Alcotest.check_raises "capacity 0 refused"
    (Invalid_argument "Vcache.create: capacity must be >= 1") (fun () ->
      ignore (Vcache.create ~capacity:0 ~registry:(Asc_obs.Metrics.create ()) ()))

let () =
  Alcotest.run "vcache"
    [ ( "unit",
        [ Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "key covers bytes and tag" `Quick test_key_covers_tag;
          Alcotest.test_case "pid isolation on invalidate" `Quick test_pid_isolation;
          Alcotest.test_case "capacity validated" `Quick test_capacity_validated ] ) ]
