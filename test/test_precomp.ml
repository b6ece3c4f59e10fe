(* The precompiled-site table (Asc_core.Precomp) on its own.

   The unit tests pin the verdict lattice (miss / memo hit / streaming
   resume / fallback), the suffix-patching soundness (a resumed MAC is
   exactly the reference path's MAC of the live call), the per-pid
   lifecycle and the site bound. Its behaviour inside the checker — the
   kernel lifecycle hook, the cycles-saved accounting, and verdict parity
   with the reference checker — is tested with the rest of the deployed
   fast path in test_fastpath.ml. *)

module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Descriptor = Asc_core.Descriptor
module Precomp = Asc_core.Precomp

let key = Cmac.of_raw "precomp-test-key"

(* ---- unit tests on the table proper ---- *)

let create () = Precomp.create ~key ~registry:(Asc_obs.Metrics.create ()) ()

(* a site with one constrained numeric argument *)
let mk ?(site = 0x40) ?(block = 7) ?(cval = 42) () =
  let d = Descriptor.(with_const_arg empty 1) in
  { Encoded.e_number = 20; e_site = site; e_descriptor = d; e_block = block;
    e_const_args = [ (1, cval) ]; e_string_args = []; e_ext = None; e_control = None }

(* a site exercising every dynamic-field kind: const, string, extension and
   control-flow reference *)
let rich ?(cval = 5) ?(s = ("/tmp/a", 0x900)) ?(ext_addr = 0xa00) ?(cf = (0xb00, 0xc00)) () =
  let d =
    Descriptor.(with_control_flow (with_ext (with_string_arg (with_const_arg empty 0) 2)))
  in
  let asref contents addr =
    { Encoded.as_addr = addr;
      as_len = String.length contents;
      as_mac = Cmac.mac key contents }
  in
  let contents, s_addr = s in
  let cf_addr, lbptr = cf in
  { Encoded.e_number = 11; e_site = 0x80; e_descriptor = d; e_block = 9;
    e_const_args = [ (0, cval) ];
    e_string_args = [ (2, asref contents s_addr) ];
    e_ext = Some (asref "extblock" ext_addr);
    e_control = Some (asref "preds" cf_addr, lbptr) }

let mac_of call = Cmac.mac key (Encoded.encode call)

let compile_call t ~pid call =
  Precomp.compile t ~pid ~call ~encoded:(Encoded.encode call) ~mac:(mac_of call)

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Precomp.Hit -> Format.fprintf ppf "Hit"
      | Precomp.Resumed -> Format.fprintf ppf "Resumed"
      | Precomp.Declined f ->
        Format.fprintf ppf "Declined(%s)"
          (Asc_obs.Telemetry.reason_label (Asc_obs.Telemetry.Precomp_fallback f)))
    ( = )

let miss = Precomp.Declined Asc_obs.Telemetry.F_no_entry
let statics = Precomp.Declined Asc_obs.Telemetry.F_statics
let tag = Precomp.Declined Asc_obs.Telemetry.F_tag

let test_compile_and_hit () =
  let t = create () in
  let call = mk () in
  Alcotest.check verdict "cold table misses" miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  compile_call t ~pid:1 call;
  Alcotest.(check int) "one entry" 1 (Precomp.size t);
  Alcotest.check verdict "same call memo-hits" Precomp.Hit
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "hit counted" 1 (Precomp.hits t);
  (* a forged tag on otherwise-identical bytes must not be proved *)
  Alcotest.check verdict "forged tag falls back" tag
    (Precomp.check t ~pid:1 ~call ~supplied:(String.make 16 'f'))

let test_statics_mismatch_falls_back () =
  let t = create () in
  let call = mk () in
  compile_call t ~pid:1 call;
  Alcotest.check verdict "different block id" statics
    (Precomp.check t ~pid:1 ~call:(mk ~block:8 ()) ~supplied:(mac_of (mk ~block:8 ())));
  Alcotest.check verdict "different site misses" miss
    (Precomp.check t ~pid:1 ~call:(mk ~site:0x44 ()) ~supplied:(mac_of (mk ~site:0x44 ())));
  Alcotest.check verdict "different pid misses" miss
    (Precomp.check t ~pid:2 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "no false hits" 0 (Precomp.hits t)

let test_resume_moves_memo () =
  let t = create () in
  compile_call t ~pid:1 (mk ~cval:42 ());
  let call' = mk ~cval:43 () in
  Alcotest.check verdict "changed argument resumes" Precomp.Resumed
    (Precomp.check t ~pid:1 ~call:call' ~supplied:(mac_of call'));
  Alcotest.check verdict "memo moved: second time is a hit" Precomp.Hit
    (Precomp.check t ~pid:1 ~call:call' ~supplied:(mac_of call'));
  (* a resume against a wrong tag proves nothing and remembers nothing *)
  Alcotest.check verdict "wrong tag on a changed call falls back" tag
    (Precomp.check t ~pid:1 ~call:(mk ~cval:44 ()) ~supplied:(mac_of call'));
  Alcotest.check verdict "failed resume did not move the memo" Precomp.Hit
    (Precomp.check t ~pid:1 ~call:call' ~supplied:(mac_of call'))

let test_patching_covers_every_field_kind () =
  (* Compile from one rich call, then present calls differing in each
     dynamic field in turn (and in all at once). A Resumed verdict means
     the patched template MAC'd to the slow path's tag — i.e. patching
     reproduced Encoded.encode of the live call byte-for-byte. *)
  let t = create () in
  compile_call t ~pid:1 (rich ());
  let resumed what call =
    match Precomp.check t ~pid:1 ~call ~supplied:(mac_of call) with
    | Precomp.Resumed | Precomp.Hit ->
      (* the checker prices the hit by the descriptor's encoded length *)
      Alcotest.(check int) (what ^ ": encoded length")
        (String.length (Encoded.encode call))
        (Encoded.encoded_length call.Encoded.e_descriptor)
    | v -> Alcotest.failf "%s: expected Resumed, got %a" what (Alcotest.pp verdict) v
  in
  resumed "const value" (rich ~cval:6 ());
  resumed "string contents + address" (rich ~s:("/tmp/bb", 0x910) ());
  resumed "extension address" (rich ~ext_addr:0xa40 ());
  resumed "control-flow ref + lbptr" (rich ~cf:(0xb40, 0xc40) ());
  resumed "all fields at once" (rich ~cval:7 ~s:("/x", 0x920) ~ext_addr:0xa80 ~cf:(0xb80, 0xc80) ())

let test_pid_lifecycle () =
  let t = create () in
  let call = mk () in
  compile_call t ~pid:1 call;
  compile_call t ~pid:2 call;
  Alcotest.(check int) "two entries" 2 (Precomp.size t);
  Precomp.drop_pid t 1;
  Alcotest.check verdict "exec emptied pid 1" miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  Alcotest.check verdict "pid 2 stays warm" Precomp.Hit
    (Precomp.check t ~pid:2 ~call ~supplied:(mac_of call));
  Precomp.drop_pid t 2;
  Alcotest.(check int) "both invalidations counted" 2 (Precomp.invalidations t);
  Alcotest.(check int) "table empty" 0 (Precomp.size t)

let test_max_sites_bound () =
  (* the per-pid site bound: the site past it flushes the pid's table and
     compiles *)
  let t = create () in
  let bound = Asc_core.Pid_table.bound in
  for i = 0 to bound - 1 do
    compile_call t ~pid:1 (mk ~site:(4 * i) ())
  done;
  Alcotest.(check int) "full" bound (Precomp.size t);
  let late = mk ~site:(4 * bound) () in
  compile_call t ~pid:1 late;
  Alcotest.(check int) "flushed to the new site" 1 (Precomp.size t);
  Alcotest.(check int) "every site compiled" (bound + 1) (Precomp.compiles t);
  Alcotest.check verdict "a flushed site misses" miss
    (Precomp.check t ~pid:1 ~call:(mk ~site:0 ()) ~supplied:(mac_of (mk ~site:0 ())));
  Alcotest.check verdict "the new site hits" Precomp.Hit
    (Precomp.check t ~pid:1 ~call:late ~supplied:(mac_of late))

let () =
  Alcotest.run "precomp"
    [ ( "unit",
        [ Alcotest.test_case "compile then memo hit" `Quick test_compile_and_hit;
          Alcotest.test_case "statics mismatch falls back" `Quick
            test_statics_mismatch_falls_back;
          Alcotest.test_case "resume verifies and moves the memo" `Quick
            test_resume_moves_memo;
          Alcotest.test_case "patching covers every field kind" `Quick
            test_patching_covers_every_field_kind;
          Alcotest.test_case "pid lifecycle" `Quick test_pid_lifecycle;
          Alcotest.test_case "max_sites bound" `Quick test_max_sites_bound ] ) ]
