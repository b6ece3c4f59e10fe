(* Tests for the paper's core mechanism: descriptors, authenticated strings,
   encoded policies, patterns, and the full install -> enforce -> attack
   loop. *)

open Asc_core
module Cmac = Asc_crypto.Cmac

let key = Cmac.of_raw (Asc_crypto.Hex.decode "000102030405060708090a0b0c0d0e0f")

(* --- descriptor --- *)

let test_descriptor_bits () =
  let d = Descriptor.empty in
  Alcotest.(check bool) "marker" true (Descriptor.is_authenticated d);
  Alcotest.(check bool) "no cf" false (Descriptor.has_control_flow d);
  let d = Descriptor.with_control_flow d in
  let d = Descriptor.with_const_arg d 1 in
  let d = Descriptor.with_const_arg d 4 in
  let d = Descriptor.with_string_arg d 0 in
  Alcotest.(check bool) "cf" true (Descriptor.has_control_flow d);
  Alcotest.(check (list int)) "const args" [ 1; 4 ] (Descriptor.const_args d);
  Alcotest.(check (list int)) "string args" [ 0 ] (Descriptor.string_args d);
  Alcotest.check_raises "bad idx" (Invalid_argument "Descriptor: argument index out of range")
    (fun () -> ignore (Descriptor.with_const_arg d 6))

let prop_descriptor_roundtrip =
  QCheck.Test.make ~name:"descriptor bits roundtrip" ~count:200
    QCheck.(pair (list_of_size (Gen.int_bound 5) (int_bound 5)) (list_of_size (Gen.int_bound 5) (int_bound 5)))
    (fun (consts, strings) ->
      let consts = List.sort_uniq compare consts and strings = List.sort_uniq compare strings in
      let d = List.fold_left Descriptor.with_const_arg Descriptor.empty consts in
      let d = List.fold_left Descriptor.with_string_arg d strings in
      Descriptor.const_args d = consts && Descriptor.string_args d = strings)

(* --- authenticated strings --- *)

let test_auth_string_roundtrip () =
  let s = "/dev/console" in
  let built = Auth_string.build key s in
  Alcotest.(check int) "size" (Auth_string.total_size s) (String.length built);
  (* place it in a fake memory and read the header back through a pointer *)
  let mem = Bytes.make 128 '\000' in
  Bytes.blit_string built 0 mem 10 (String.length built);
  let ptr = 10 + Auth_string.header_size in
  let byte_at i = if i >= 0 && i < 128 then Some (Char.code (Bytes.get mem i)) else None in
  match Auth_string.read_header byte_at ~ptr with
  | None -> Alcotest.fail "header unreadable"
  | Some (len, mac) ->
    Alcotest.(check int) "length" (String.length s) len;
    Alcotest.(check bool) "mac matches contents" true
      (Cmac.equal_tags mac (Auth_string.mac_of key s))

let test_auth_string_bad_header () =
  let byte_at _ = Some 0xff in
  (* length = 0xffffffff -> implausible *)
  Alcotest.(check bool) "implausible length rejected" true
    (Auth_string.read_header byte_at ~ptr:100 = None)

(* --- encoded policies --- *)

let sample_encoded ?(site = 0x2000) () =
  let d = Descriptor.empty |> Descriptor.with_control_flow in
  let d = Descriptor.with_const_arg d 1 in
  let d = Descriptor.with_string_arg d 0 in
  { Encoded.e_number = 5;
    e_site = site;
    e_descriptor = d;
    e_block = (1 lsl 20) + 7;
    e_const_args = [ (1, 64) ];
    e_string_args =
      [ (0, { Encoded.as_addr = 0x5014; as_len = 12; as_mac = String.make 16 'm' }) ];
    e_ext = None;
    e_control = (Some ({ Encoded.as_addr = 0x5100; as_len = 16; as_mac = String.make 16 'p' }, 0x5200)) }

let test_encoded_deterministic () =
  let e = sample_encoded () in
  Alcotest.(check string) "stable" (Encoded.encode e) (Encoded.encode e);
  let e' = sample_encoded ~site:0x2008 () in
  Alcotest.(check bool) "site changes encoding" true (Encoded.encode e <> Encoded.encode e')

let test_encoded_descriptor_mismatch () =
  let e = sample_encoded () in
  let bad = { e with Encoded.e_const_args = [] } in
  Alcotest.check_raises "missing const arg"
    (Invalid_argument "Encoded: constant args disagree with descriptor") (fun () ->
      ignore (Encoded.encode bad))

let prop_predset_membership =
  QCheck.Test.make ~name:"predset membership" ~count:200
    QCheck.(pair (small_list (int_bound 10000)) (int_bound 10000))
    (fun (preds, probe) ->
      let contents = Encoded.predset_contents preds in
      Encoded.predset_mem contents probe = List.mem probe preds)

(* --- patterns (§5.1) --- *)

let test_pattern_paper_example () =
  (* §5.1's worked example: pattern "/tmp/{foo,bar}*baz", argument
     "/tmp/foofoobaz", proof hint (0, 3) *)
  let p = Patterns.compile_exn "/tmp/{foo,bar}*baz" in
  Alcotest.(check bool) "matches" true (Patterns.matches p "/tmp/foofoobaz");
  Alcotest.(check bool) "hint (0,3) verifies" true
    (Patterns.verify_with_hint p "/tmp/foofoobaz" ~hint:[ 0; 3 ]);
  Alcotest.(check bool) "wrong hint rejected" false
    (Patterns.verify_with_hint p "/tmp/foofoobaz" ~hint:[ 1; 3 ]);
  Alcotest.(check bool) "bar branch" true (Patterns.matches p "/tmp/barXbaz");
  Alcotest.(check bool) "non-match" false (Patterns.matches p "/etc/passwd");
  Alcotest.(check (option (list int))) "derived hint" (Some [ 0; 3 ])
    (Patterns.derive_hint p "/tmp/foofoobaz")

let test_pattern_syntax_errors () =
  (match Patterns.compile "/tmp/{foo" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unclosed brace accepted");
  match Patterns.compile "a}b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unmatched brace accepted"

let test_pattern_star_and_question () =
  let p = Patterns.compile_exn "/tmp/????.*" in
  Alcotest.(check bool) "question marks" true (Patterns.matches p "/tmp/abcd.log");
  Alcotest.(check bool) "length enforced" false (Patterns.matches p "/tmp/abc.log")

let prop_pattern_hint_complete =
  (* whenever the matcher succeeds, derive_hint produces a verifying hint *)
  let pat_gen =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 1 6)
           (oneofl [ "a"; "b"; "/"; "*"; "?"; "{ab,c}" ])))
  in
  let str_gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '/' ]) (int_bound 8)) in
  QCheck.Test.make ~name:"derive_hint completeness" ~count:500
    (QCheck.make ~print:(fun (p, s) -> p ^ " ~ " ^ s) QCheck.Gen.(pair pat_gen str_gen))
    (fun (pat, s) ->
      match Patterns.compile pat with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
        (match (Patterns.matches p s, Patterns.derive_hint p s) with
         | false, None -> true
         | true, Some h -> Patterns.verify_with_hint p s ~hint:h
         | true, None -> false
         | false, Some _ -> false))

let prop_pattern_hint_sound =
  (* the security direction: if the kernel's linear verifier accepts a hint,
     the string genuinely matches the pattern — a forged hint can never
     smuggle a non-matching argument past the check *)
  let pat_gen =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 1 6) (oneofl [ "a"; "b"; "/"; "*"; "?"; "{ab,c}" ])))
  in
  let str_gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '/' ]) (int_bound 8)) in
  let hint_gen = QCheck.Gen.(list_size (int_bound 4) (int_range (-1) 9)) in
  QCheck.Test.make ~name:"hint verification soundness" ~count:2000
    (QCheck.make
       ~print:(fun (p, s, h) ->
         Printf.sprintf "%s ~ %s hint=(%s)" p s (String.concat "," (List.map string_of_int h)))
       QCheck.Gen.(triple pat_gen str_gen hint_gen))
    (fun (pat, s, hint) ->
      match Patterns.compile pat with
      | Error _ -> QCheck.assume_fail ()
      | Ok p -> (not (Patterns.verify_with_hint p s ~hint)) || Patterns.matches p s)

(* --- full pipeline: install, enforce, attack --- *)

open Oskernel

let num sem = Option.get (Personality.number_of Personality.linux sem)

(* A libc-styled victim: prints a message, opens a config file, exits. *)
let program_src =
  Printf.sprintf
    {|
_start: movi r1, 1
        movi r2, msg
        movi r3, 6
        call write
        movi r1, path
        movi r2, 0
        movi r3, 0
        call open
        movi r1, 0
        call exit
        halt
write:  movi r0, %d
        sys
        ret
open:   movi r0, %d
        sys
        ret
exit:   movi r0, %d
        sys
        ret
        .rodata
msg:    .asciz "hello"
path:   .asciz "/etc/motd"
|}
    (num Syscall.Write) (num Syscall.Open) (num Syscall.Exit)

let install_exn ?options src =
  let img = Svm.Asm.assemble_exn src in
  match Installer.install ~key ~personality:Personality.linux ?options ~program:"victim" img with
  | Ok inst -> inst
  | Error e -> Alcotest.failf "install failed: %s" e

let run_installed ?(patch = fun _ -> ()) ?(stdin = "") ?(normalize_paths = false)
    ?(wrap = fun m -> m) (inst : Installer.installed) =
  let kernel = Kernel.create () in
  let checker = Checker.monitor ~kernel ~key ~normalize_paths () in
  Kernel.set_monitor kernel (Some (wrap checker));
  let proc = Kernel.spawn kernel ~stdin ~program:"victim" inst.Installer.image in
  patch proc.Process.machine;
  let stop = Kernel.run kernel proc ~max_cycles:50_000_000 in
  (kernel, proc, stop)

let test_install_reports_policy () =
  let inst = install_exn program_src in
  Alcotest.(check int) "three sites" 3 inst.Installer.sites;
  let pol = inst.Installer.policy in
  Alcotest.(check int) "three distinct calls" 3 (List.length (Policy.distinct_calls pol));
  (* write's buffer is an input pointer: protected by its *address* (the
     paper's read-only-string case); open's pathname is a full
     authenticated string *)
  let write_site =
    List.find (fun s -> s.Policy.s_sem = Some Syscall.Write) pol.Policy.sites
  in
  (match write_site.Policy.s_args.(1) with
   | Policy.A_data _ -> ()
   | _ -> Alcotest.fail "write arg 1 should be address-constrained");
  (match write_site.Policy.s_args.(0) with
   | Policy.A_const 1 -> ()
   | _ -> Alcotest.fail "write arg 0 should be fd 1");
  let open_site = List.find (fun s -> s.Policy.s_sem = Some Syscall.Open) pol.Policy.sites in
  (match open_site.Policy.s_args.(0) with
   | Policy.A_string "/etc/motd" -> ()
   | _ -> Alcotest.fail "open arg 0 should be the authenticated string \"/etc/motd\"");
  (* control-flow chain: write <- start, open <- write, exit <- open *)
  (match write_site.Policy.s_preds with
   | Some [ p ] -> Alcotest.(check int) "write preceded by start" (1 lsl 20) p
   | _ -> Alcotest.fail "write should have exactly the start predecessor");
  let exit_site = List.find (fun s -> s.Policy.s_sem = Some Syscall.Exit) pol.Policy.sites in
  (match exit_site.Policy.s_preds with
   | Some [ p ] -> Alcotest.(check int) "exit preceded by open" open_site.Policy.s_block p
   | _ -> Alcotest.fail "exit should have one predecessor")

let test_installed_binary_runs_clean () =
  let inst = install_exn program_src in
  let kernel, proc, stop = run_installed inst in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
   | _ -> Alcotest.fail "did not exit 0");
  Alcotest.(check string) "output intact" "hello\000" (Kernel.stdout_of proc);
  Alcotest.(check (list string))
    "no audit entries" []
    (List.map Kernel.audit_to_string (Kernel.audit_log kernel))

let test_unauthenticated_blocked () =
  (* running the ORIGINAL binary under enforcement must be blocked *)
  let img = Svm.Asm.assemble_exn program_src in
  let kernel = Kernel.create () in
  Kernel.set_monitor kernel (Some (Checker.monitor ~kernel ~key ()));
  let proc = Kernel.spawn kernel ~program:"victim" img in
  match Kernel.run kernel proc ~max_cycles:1_000_000 with
  | Svm.Machine.Killed reason ->
    Alcotest.(check string) "reason" "unauthenticated system call" reason
  | _ -> Alcotest.fail "unauthenticated call was not blocked"

let find_sys_slots (m : Svm.Machine.t) =
  (* scan low memory for Sys instructions *)
  let slots = ref [] in
  let i = ref Svm.Asm.text_base in
  let continue = ref true in
  while !continue do
    (match Svm.Machine.read_mem m ~addr:!i ~len:8 with
     | None -> continue := false
     | Some bytes ->
       if bytes = "\x00\x00\x00\x00\x00\x00\x00\x00" && !i > Svm.Asm.text_base + 64 then
         continue := false
       else begin
         (match Svm.Isa.decode (Bytes.of_string bytes) ~pos:0 with
          | Some Svm.Isa.Sys -> slots := !i :: !slots
          | _ -> ());
         i := !i + 8
       end)
  done;
  List.rev !slots

(* The address of the authenticated string "/etc/motd" inside [inst]'s
   .asc section, as loaded in [m]. *)
let motd_addr (inst : Installer.installed) (m : Svm.Machine.t) =
  let asc = Option.get (Svm.Obj_file.section_named inst.Installer.image ".asc") in
  let rec scan a =
    if a > asc.Svm.Obj_file.sec_addr + asc.Svm.Obj_file.sec_size - 10 then
      Alcotest.fail "string not found in .asc"
    else if Svm.Machine.read_mem m ~addr:a ~len:9 = Some "/etc/motd" then a
    else scan (a + 1)
  in
  scan asc.Svm.Obj_file.sec_addr

let test_tampered_string_detected () =
  (* flip a byte of the authenticated string contents in .asc *)
  let inst = install_exn program_src in
  let patch m = ignore (Svm.Machine.write_byte m (motd_addr inst m + 5) (Char.code 'p')) in
  let _, _, stop = run_installed ~patch inst in
  match stop with
  | Svm.Machine.Killed reason ->
    Alcotest.(check string) "deny names the argument" "argument 0: string authentication failed"
      reason
  | _ -> Alcotest.fail "string tampering not detected"

(* The typed deny names which MAC is which: [expected] is the prefix of
   the MAC the kernel computed over the live (tampered) contents, [got]
   the prefix of the tag the installer stored for the original string.
   An authenticated string's contents carry its NUL terminator. *)
let test_string_deny_mac_prefixes () =
  let inst = install_exn program_src in
  let patch m = ignore (Svm.Machine.write_byte m (motd_addr inst m + 5) (Char.code 'p')) in
  let kernel, _, _ = run_installed ~patch inst in
  let prefix tag = String.concat "" (List.init 8 (fun i -> Printf.sprintf "%02x" (Char.code tag.[i]))) in
  match Kernel.audit_log kernel with
  | [ Kernel.Violation { violation = v; _ } ] ->
    Alcotest.(check string) "step" "string_mac" (Violation.step_name v.Violation.v_step);
    Alcotest.(check (option string)) "expected: the MAC of the live contents"
      (Some (prefix (Auth_string.mac_of key "/etc/potd\000")))
      v.Violation.v_expected_mac;
    Alcotest.(check (option string)) "got: the installed tag"
      (Some (prefix (Auth_string.mac_of key "/etc/motd\000")))
      v.Violation.v_got_mac
  | entries -> Alcotest.failf "expected exactly one Violation entry, got %d" (List.length entries)

let test_tampered_argument_detected () =
  (* change the constant fd argument (movi r1, 1 -> movi r1, 2) in text:
     the kernel's encoded call then differs from the policy -> MAC mismatch *)
  let inst = install_exn program_src in
  let patch (m : Svm.Machine.t) =
    let a = ref Svm.Asm.text_base in
    let patched = ref false in
    while not !patched do
      (match Svm.Machine.read_mem m ~addr:!a ~len:8 with
       | Some bytes ->
         (match Svm.Isa.decode (Bytes.of_string bytes) ~pos:0 with
          | Some (Svm.Isa.Movi (1, 1)) ->
            let b = Bytes.create 8 in
            Svm.Isa.encode (Svm.Isa.Movi (1, 2)) b ~pos:0;
            ignore (Svm.Machine.write_mem m ~addr:!a (Bytes.to_string b));
            patched := true
          | _ -> ())
       | None -> Alcotest.fail "movi r1,1 not found");
      a := !a + 8
    done
  in
  let _, _, stop = run_installed ~patch inst in
  match stop with
  | Svm.Machine.Killed "call MAC mismatch" -> ()
  | Svm.Machine.Killed r -> Alcotest.failf "unexpected reason: %s" r
  | _ -> Alcotest.fail "argument tampering not detected"

let test_control_flow_violation_detected () =
  (* nop out the first syscall (write): getpid then executes with
     lastBlock = start sentinel, which is not in its predecessor set *)
  let inst = install_exn program_src in
  let patch (m : Svm.Machine.t) =
    match find_sys_slots m with
    | first :: _ ->
      let b = Bytes.create 8 in
      Svm.Isa.encode Svm.Isa.Nop b ~pos:0;
      ignore (Svm.Machine.write_mem m ~addr:first (Bytes.to_string b))
    | [] -> Alcotest.fail "no sys found"
  in
  let _, _, stop = run_installed ~patch inst in
  match stop with
  | Svm.Machine.Killed reason ->
    let is_cf =
      String.length reason >= 22 && String.sub reason 0 22 = "control-flow violation"
    in
    Alcotest.(check bool) ("cf violation: " ^ reason) true is_cf
  | _ -> Alcotest.fail "control-flow skip not detected"

let test_policy_state_replay_detected () =
  (* capture lastBlock/lbMAC after the first syscall and replay it before
     the third: the kernel-side counter (nonce) must catch it *)
  let inst = install_exn program_src in
  let saved = ref None in
  let calls = ref 0 in
  let wrap (checker : Kernel.monitor) =
    { Kernel.monitor_name = "replay-attacker";
      pre_syscall =
        (fun p ~site ~number ->
          incr calls;
          let m = p.Process.machine in
          let lbp = m.Svm.Machine.regs.(10) in
          (if !calls = 3 then
             match !saved with
             | Some bytes -> ignore (Svm.Machine.write_mem m ~addr:lbp bytes)
             | None -> ());
          let verdict = checker.Kernel.pre_syscall p ~site ~number in
          (if !calls = 1 then
             match Svm.Machine.read_mem m ~addr:lbp ~len:24 with
             | Some bytes -> saved := Some bytes
             | None -> ());
          verdict);
      post_syscall = Kernel.no_post }
  in
  let _, _, stop = run_installed ~wrap inst in
  match stop with
  | Svm.Machine.Killed "policy state corrupted" -> ()
  | Svm.Machine.Killed r -> Alcotest.failf "unexpected reason: %s" r
  | _ -> Alcotest.fail "replay not detected"

let test_block_ids_globally_unique () =
  (* §5.5 Frankenstein countermeasure: two programs installed with distinct
     program ids have disjoint block-id spaces *)
  let inst_a =
    install_exn
      ~options:{ Installer.default_options with program_id = 1 }
      program_src
  in
  let inst_b =
    install_exn
      ~options:{ Installer.default_options with program_id = 2 }
      program_src
  in
  let blocks p = List.map (fun s -> s.Policy.s_block) p.Installer.policy.Policy.sites in
  List.iter
    (fun b -> Alcotest.(check bool) "disjoint" false (List.mem b (blocks inst_b)))
    (blocks inst_a)

let test_program_id_range () =
  let img = Svm.Asm.assemble_exn program_src in
  (match
     Asc_core.Installer.install ~key ~personality:Personality.linux
       ~options:{ Asc_core.Installer.default_options with program_id = 2047 }
       ~program:"hi" img
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "max id rejected: %s" e);
  match
    Asc_core.Installer.install ~key ~personality:Personality.linux
      ~options:{ Asc_core.Installer.default_options with program_id = 2048 }
      ~program:"hi" img
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range program id accepted"

let test_install_rejects_opaque () =
  (* the opaque block must be statically reachable (the branch's fall-through)
     or dead-code elimination would legitimately drop it *)
  let src =
    "_start: movi r1, 1\n beq r1, r1, over\n .byte 0xff,0xff,0xff,0xff,0xff,0xff,0xff,0xff\nover: halt"
  in
  let img = Svm.Asm.assemble_exn src in
  (match Installer.install ~key ~personality:Personality.linux ~program:"x" img with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "opaque binary installed");
  (* ... but policy generation still works, with a warning (the OpenBSD
     close-stub scenario of Table 2) *)
  match Installer.generate_policy ~personality:Personality.linux ~program:"x" img with
  | Ok pol -> Alcotest.(check bool) "warning recorded" true (pol.Policy.warnings <> [])
  | Error e -> Alcotest.failf "policy generation failed: %s" e

let test_authenticated_overhead_charged () =
  (* the authenticated run must consume more cycles than the plain run *)
  let img = Svm.Asm.assemble_exn program_src in
  let inst = install_exn program_src in
  let kernel1 = Kernel.create () in
  let p1 = Kernel.spawn kernel1 ~program:"v" img in
  ignore (Kernel.run kernel1 p1 ~max_cycles:50_000_000);
  let _, p2, _ = run_installed inst in
  Alcotest.(check bool) "authenticated costs more cycles" true
    (p2.Process.machine.Svm.Machine.cycles > p1.Process.machine.Svm.Machine.cycles + 3 * 3000)

(* A guest cannot make the checker read a string length the installer did
   not MAC: the encoded call covers each string's address and length, and
   step 2 reads contents only after step 1 has verified the call MAC. So
   rewriting the length in "/etc/motd"'s header (true length 10, with its
   NUL) kills the run at the call-MAC step, and no string-MAC cycle is
   charged. Up to 1 MiB the header parses and the call MAC mismatches; one
   byte past it, the header itself is refused. *)
let test_string_length_covered_by_call_mac () =
  let inst = install_exn program_src in
  let mib = 1 lsl 20 in
  List.iter
    (fun len ->
      let patch m =
        let hdr = motd_addr inst m - Auth_string.header_size in
        for i = 0 to 3 do
          ignore (Svm.Machine.write_byte m (hdr + i) ((len lsr (8 * i)) land 0xff))
        done
      in
      let kernel, p, stop = run_installed ~patch inst in
      let what = Printf.sprintf "length %d" len in
      (match stop with
       | Svm.Machine.Killed "call MAC mismatch" when len <= mib -> ()
       | Svm.Machine.Killed r
         when len > mib
              && r
                 = Printf.sprintf "argument 0: bad authenticated-string header at 0x%x"
                     (motd_addr inst p.Process.machine) ->
         ()
       | Svm.Machine.Killed r -> Alcotest.failf "%s: unexpected reason: %s" what r
       | _ -> Alcotest.failf "%s: tampered length not denied" what);
      let steps =
        List.filter_map
          (function
            | Kernel.Violation { violation = v; _ } -> Some (Violation.step_name v.Violation.v_step)
            | _ -> None)
          (Kernel.audit_log kernel)
      in
      Alcotest.(check (list string)) (what ^ ": denied at the call-MAC step") [ "call_mac" ] steps;
      Alcotest.(check (option int))
        (what ^ ": no string-MAC cycle charged")
        (Some 0)
        (Asc_obs.Metrics.value (Kernel.metrics kernel) "checker.cycles.string_mac"))
    [ 11; mib; mib + 1 ]

let suite_mechanism =
  [ Alcotest.test_case "descriptor bits" `Quick test_descriptor_bits;
    Alcotest.test_case "auth string roundtrip" `Quick test_auth_string_roundtrip;
    Alcotest.test_case "auth string bad header" `Quick test_auth_string_bad_header;
    Alcotest.test_case "encoded deterministic" `Quick test_encoded_deterministic;
    Alcotest.test_case "encoded/descriptor consistency" `Quick test_encoded_descriptor_mismatch;
    Alcotest.test_case "pattern: paper example + hints" `Quick test_pattern_paper_example;
    Alcotest.test_case "pattern: syntax errors" `Quick test_pattern_syntax_errors;
    Alcotest.test_case "pattern: star and question" `Quick test_pattern_star_and_question ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_descriptor_roundtrip; prop_predset_membership; prop_pattern_hint_complete;
        prop_pattern_hint_sound ]

let suite_pipeline =
  [ Alcotest.test_case "install reports policy" `Quick test_install_reports_policy;
    Alcotest.test_case "installed binary runs clean" `Quick test_installed_binary_runs_clean;
    Alcotest.test_case "unauthenticated call blocked" `Quick test_unauthenticated_blocked;
    Alcotest.test_case "tampered string detected" `Quick test_tampered_string_detected;
    Alcotest.test_case "string deny reports both MAC prefixes" `Quick
      test_string_deny_mac_prefixes;
    Alcotest.test_case "tampered argument detected" `Quick test_tampered_argument_detected;
    Alcotest.test_case "control-flow violation detected" `Quick test_control_flow_violation_detected;
    Alcotest.test_case "policy-state replay detected" `Quick test_policy_state_replay_detected;
    Alcotest.test_case "block ids globally unique" `Quick test_block_ids_globally_unique;
    Alcotest.test_case "opaque binaries rejected for install" `Quick test_install_rejects_opaque;
    Alcotest.test_case "program id range" `Quick test_program_id_range;
    Alcotest.test_case "verification cycles charged" `Quick test_authenticated_overhead_charged;
    Alcotest.test_case "string length is covered by the call MAC" `Quick
      test_string_length_covered_by_call_mac ]

let () =
  Alcotest.run "asc_core"
    [ ("mechanism", suite_mechanism); ("pipeline", suite_pipeline) ]
