(* The precompiled control-flow table (Asc_core.Cfpre) on its own.

   The unit tests pin the verdict lattice (miss / hit / ref fallback /
   contents fallback), the base-offset bitset against globally-unique
   block ids (program id in the high bits), the span bound, the
   single-block CMAC chain step against the one-shot MAC, the per-pid
   lifecycle and bound, and the shared facts: a second pid's miss
   accepted from the first pid's compiled set, and refused on other
   bytes. Its behaviour inside the checker — the kernel lifecycle hook,
   the cycles-saved accounting, the shared facts deciding another
   process's first visits, and verdict parity with the reference checker
   — is tested with the rest of the deployed fast path in
   test_fastpath.ml. *)

module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Cfpre = Asc_core.Cfpre
module Machine = Svm.Machine

let key = Cmac.of_raw "cfpre-test-key!!"

(* ---- unit tests on the table proper ---- *)

let create () = Cfpre.create ~registry:(Asc_obs.Metrics.create ()) ()

(* a machine holding one predecessor set at [addr], plus the matching
   verified reference *)
let machine_with_set ~addr ids =
  let m = Machine.create ~mem_size:4096 in
  let contents = Encoded.predset_contents ids in
  assert (Machine.write_mem m ~addr contents);
  let r =
    { Encoded.as_addr = addr; as_len = String.length contents; as_mac = Cmac.mac key contents }
  in
  (m, r, contents)

let verdict_name = function
  | Cfpre.Hit _ -> "Hit"
  | Cfpre.Declined cause -> Asc_obs.Telemetry.cf_label cause

let check_is what expected t ~m ~pid ~site ~pred_ref =
  let got = verdict_name (Cfpre.check t ~m ~pid ~site ~pred_ref) in
  Alcotest.(check string) what expected got

let test_compile_and_hit () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3; 7; 9 ] in
  check_is "cold table misses" "cf_slow" t ~m ~pid:1 ~site:0x40 ~pred_ref:r;
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "one entry" 1 (Cfpre.size t);
  (match Cfpre.check t ~m ~pid:1 ~site:0x40 ~pred_ref:r with
   | Cfpre.Hit entry ->
     (* the bitset decides exactly what predset_mem decides *)
     for b = 0 to 16 do
       Alcotest.(check bool)
         (Printf.sprintf "member %d" b)
         (Encoded.predset_mem contents b) (Cfpre.member entry b)
     done
   | v -> Alcotest.failf "expected Hit, got %s" (verdict_name v));
  Alcotest.(check int) "hit counted" 1 (Cfpre.hits t);
  check_is "other site misses" "cf_slow" t ~m ~pid:1 ~site:0x44 ~pred_ref:r;
  check_is "other pid misses" "cf_slow" t ~m ~pid:2 ~site:0x40 ~pred_ref:r

let test_globally_unique_ids () =
  (* block ids carry the program id in the high bits (program_id lsl 20 lor
     local), so the absolute values dwarf any sane dense bound; the bitset
     is offset from the set's smallest id and only the span matters *)
  let pid_bits = 7 lsl 20 in
  let ids = [ pid_bits lor 2; pid_bits lor 5; pid_bits lor 40 ] in
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 ids in
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "wide ids still compile" 1 (Cfpre.size t);
  (match Cfpre.check t ~m ~pid:1 ~site:0x40 ~pred_ref:r with
   | Cfpre.Hit entry ->
     List.iter
       (fun b -> Alcotest.(check bool) "compiled id is a member" true (Cfpre.member entry b))
       ids;
     Alcotest.(check bool) "below base is not" false (Cfpre.member entry (pid_bits lor 1));
     Alcotest.(check bool) "gap id is not" false (Cfpre.member entry (pid_bits lor 3));
     Alcotest.(check bool) "other program's block is not" false
       (Cfpre.member entry ((8 lsl 20) lor 2));
     Alcotest.(check bool) "negative id is not" false (Cfpre.member entry (-1))
   | v -> Alcotest.failf "expected Hit, got %s" (verdict_name v))

let test_span_bound_declines () =
  let t = create () in
  (* a span one past the limit must decline; the site simply stays on the
     slow path *)
  let _, r, contents = machine_with_set ~addr:0x100 [ 100; 100 + Cfpre.block_limit ] in
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "over-span set not compiled" 0 (Cfpre.size t);
  (* a span of exactly the limit is fine *)
  let _, r2, c2 = machine_with_set ~addr:0x200 [ 100; 99 + Cfpre.block_limit ] in
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x44 ~pred_ref:r2 ~contents:c2;
  Alcotest.(check int) "at-span set compiled" 1 (Cfpre.size t);
  (* malformed contents (not a multiple of 8, or empty) decline too *)
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x48 ~pred_ref:r ~contents:"short";
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x4c ~pred_ref:r ~contents:"";
  Alcotest.(check int) "malformed sets not compiled" 1 (Cfpre.size t)

let test_fallbacks () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3; 7 ] in
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  (* a moved/forged reference: same site, different (addr, len, mac) *)
  check_is "forged mac falls back" "cf_fallback_ref" t ~m ~pid:1 ~site:0x40
    ~pred_ref:{ r with Encoded.as_mac = String.make 16 'f' };
  check_is "moved addr falls back" "cf_fallback_ref" t ~m ~pid:1 ~site:0x40
    ~pred_ref:{ r with Encoded.as_addr = 0x104 };
  (* the reference matches but the guest bytes moved out from under it *)
  assert (Machine.write_byte m (0x100 + 3) 0xff);
  check_is "mutated guest bytes fall back" "cf_fallback_contents" t ~m ~pid:1 ~site:0x40
    ~pred_ref:r;
  Alcotest.(check int) "fallbacks counted" 3 (Cfpre.fallbacks t);
  Alcotest.(check int) "no false hits" 0 (Cfpre.hits t)

let test_pid_lifecycle () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3 ] in
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  Cfpre.compile t ~pid:2 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "two entries" 2 (Cfpre.size t);
  Cfpre.drop_pid t 1;
  check_is "exec emptied pid 1" "cf_slow" t ~m ~pid:1 ~site:0x40 ~pred_ref:r;
  check_is "pid 2 stays warm" "Hit" t ~m ~pid:2 ~site:0x40 ~pred_ref:r;
  Cfpre.drop_pid t 2;
  Alcotest.(check int) "both invalidations counted" 2 (Cfpre.invalidations t);
  Alcotest.(check int) "table empty" 0 (Cfpre.size t)

let test_max_sites_and_block_limit () =
  (* the per-pid site bound: the site past it flushes the pid's table and
     compiles; a set over the block limit is declined before it can *)
  let t = create () in
  let bound = Asc_core.Pid_table.bound in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3 ] in
  for i = 0 to bound - 1 do
    Cfpre.compile t ~pid:1 ~block:0 ~site:(4 * i) ~pred_ref:r ~contents
  done;
  Alcotest.(check int) "full" bound (Cfpre.size t);
  let _, wide_r, wide = machine_with_set ~addr:0x200 [ 100; 100 + Cfpre.block_limit ] in
  Cfpre.compile t ~pid:1 ~block:0 ~site:(4 * bound) ~pred_ref:wide_r ~contents:wide;
  Alcotest.(check int) "over-span set leaves the full table" bound (Cfpre.size t);
  Alcotest.(check int) "over-span set not compiled" bound (Cfpre.compiles t);
  Cfpre.compile t ~pid:1 ~block:0 ~site:(4 * bound) ~pred_ref:r ~contents;
  Alcotest.(check int) "flushed to the new site" 1 (Cfpre.size t);
  Alcotest.(check int) "every site compiled" (bound + 1) (Cfpre.compiles t);
  check_is "a flushed site misses" "cf_slow" t ~m ~pid:1 ~site:0 ~pred_ref:r;
  check_is "the new site hits" "Hit" t ~m ~pid:1 ~site:(4 * bound) ~pred_ref:r

let test_shared_fact () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3; 7 ] in
  let shared ?(block = 5) ?(pred_ref = r) m =
    Option.is_some (Cfpre.check_shared t ~m ~site:0x40 ~block ~pred_ref)
  in
  Alcotest.(check bool) "a cold table has no fact" false (shared m);
  Cfpre.compile t ~pid:1 ~site:0x40 ~block:5 ~pred_ref:r ~contents;
  Alcotest.(check int) "one fact" 1 (Cfpre.shared_size t);
  check_is "pid 2 misses its own table" "cf_slow" t ~m ~pid:2 ~site:0x40 ~pred_ref:r;
  Alcotest.(check bool) "the fact accepts pid 2's set" true (shared m);
  Alcotest.(check bool) "not at another block" false (shared ~block:6 m);
  Alcotest.(check bool) "not under a forged tag" false
    (shared ~pred_ref:{ r with Encoded.as_mac = String.make 16 'f' } m);
  (* the fact is asked only after [check] reports cf_slow, which it does
     only for a pid with no entry *)
  check_is "a pid with an entry is not sent to the fact" "Hit" t ~m ~pid:1 ~site:0x40
    ~pred_ref:r;
  (match Cfpre.check_shared t ~m ~site:0x40 ~block:5 ~pred_ref:r with
   | Some e -> Cfpre.adopt t ~pid:2 ~site:0x40 e
   | None -> Alcotest.fail "no fact");
  Alcotest.(check int) "adopting counts a compile" 2 (Cfpre.compiles t);
  Alcotest.(check int) "and a shared hit" 1 (Cfpre.shared_hits t);
  check_is "pid 2 now hits its own entry" "Hit" t ~m ~pid:2 ~site:0x40 ~pred_ref:r;
  (* the reference matches but the guest bytes differ: the fact's tag
     covers other bytes, so it proves nothing *)
  assert (Machine.write_byte m 0x100 0xff);
  Alcotest.(check bool) "a flipped set byte" false (shared m);
  Alcotest.(check int) "no further hit" 1 (Cfpre.shared_hits t)

(* ---- the amortized chain step vs the one-shot MAC ---- *)

let test_chain_step_equals_one_shot () =
  (* the fast path's single-block CMAC over the serialized policy state
     must equal the slow path's Cmac.mac of Encoded.state_bytes — the tag
     written back to guest memory is bit-identical on both paths *)
  let t = create () in
  let _, r, contents = machine_with_set ~addr:0x100 [ 3 ] in
  Cfpre.compile t ~pid:1 ~block:0 ~site:0x40 ~pred_ref:r ~contents;
  let m2, _, _ = machine_with_set ~addr:0x100 [ 3 ] in
  match Cfpre.check t ~m:m2 ~pid:1 ~site:0x40 ~pred_ref:r with
  | Cfpre.Hit _ ->
    let state = Bytes.create 16 and tag = Bytes.create 16 in
    List.iter
      (fun (counter, last_block) ->
        Cfpre.state_into state ~counter ~last_block;
        Alcotest.(check string)
          (Printf.sprintf "state (%d, %d)" counter last_block)
          (Encoded.state_bytes ~counter ~last_block)
          (Bytes.to_string state);
        Cmac.mac_block_into key state ~dst:tag;
        Alcotest.(check string)
          (Printf.sprintf "tag (%d, %d)" counter last_block)
          (Cmac.mac key (Encoded.state_bytes ~counter ~last_block))
          (Bytes.to_string tag))
      [ (0, 0); (1, 7); (12345, (9 lsl 20) lor 3); (max_int, max_int) ]
  | v -> Alcotest.failf "expected Hit, got %s" (verdict_name v)

let test_word_accessors_round_trip () =
  (* the allocation-free word accessors must agree with the boxed pair for
     every byte pattern, including the sign bit *)
  let m = Machine.create ~mem_size:64 in
  List.iter
    (fun v ->
      Machine.set_word m 8 v;
      Alcotest.(check int) (Printf.sprintf "word_at %d" v) v (Machine.word_at m 8);
      Alcotest.(check (option int))
        (Printf.sprintf "read_word %d" v)
        (Some v) (Machine.read_word m 8);
      assert (Machine.write_word m 16 v);
      Alcotest.(check int) (Printf.sprintf "write_word/word_at %d" v) v (Machine.word_at m 16))
    [ 0; 1; 255; 0x0123_4567_89ab; max_int; -1; min_int; (1 lsl 20) lor 3 ];
  Alcotest.(check bool) "word_ok in range" true (Machine.word_ok m 56);
  Alcotest.(check bool) "word_ok out of range" false (Machine.word_ok m 57);
  Alcotest.check_raises "word_at out of range"
    (Invalid_argument "Machine.word_at: out of range") (fun () ->
      ignore (Machine.word_at m 57))

let () =
  Alcotest.run "cfpre"
    [ ( "unit",
        [ Alcotest.test_case "compile then hit" `Quick test_compile_and_hit;
          Alcotest.test_case "globally-unique ids use the base offset" `Quick
            test_globally_unique_ids;
          Alcotest.test_case "span bound declines compilation" `Quick
            test_span_bound_declines;
          Alcotest.test_case "forged ref / mutated bytes fall back" `Quick test_fallbacks;
          Alcotest.test_case "pid lifecycle" `Quick test_pid_lifecycle;
          Alcotest.test_case "max_sites and block_limit bounds" `Quick
            test_max_sites_and_block_limit ] );
      ( "shared",
        [ Alcotest.test_case "a fact accepts a second pid's set" `Quick test_shared_fact ] );
      ( "chain",
        [ Alcotest.test_case "chain step equals one-shot MAC" `Quick
            test_chain_step_equals_one_shot;
          Alcotest.test_case "word accessors round-trip" `Quick
            test_word_accessors_round_trip ] ) ]
