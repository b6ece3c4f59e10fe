(* The §4.1 / §5.5 attack experiments. Each attack must genuinely succeed
   against the unprotected system (the vulnerability is real) and be blocked
   by authenticated system calls. *)

let check_succeeded what = function
  | Attacks.Succeeded _ -> ()
  | o -> Alcotest.failf "%s: expected success, got %a" what Attacks.pp_outcome o

let check_blocked what = function
  | Attacks.Blocked _ -> ()
  | o -> Alcotest.failf "%s: expected block, got %a" what Attacks.pp_outcome o

let check_blocked_step what expected = function
  | Attacks.Blocked { Attacks.b_step = Some s; _ } ->
    if not (List.mem s expected) then
      Alcotest.failf "%s: blocked at %s, expected one of [%s]" what
        (Oskernel.Violation.step_name s)
        (String.concat "; " (List.map Oskernel.Violation.step_name expected))
  | Attacks.Blocked { Attacks.b_step = None; _ } ->
    Alcotest.failf "%s: blocked without a structured violation" what
  | o -> Alcotest.failf "%s: expected block, got %a" what Attacks.pp_outcome o

let test_shellcode_unprotected () =
  check_succeeded "shellcode vs unprotected" (Attacks.shellcode ~protected:false ())

let test_shellcode_blocked () =
  check_blocked "shellcode vs ASC" (Attacks.shellcode ~protected:true ())

let test_mimicry_unprotected () =
  check_succeeded "mimicry vs unprotected" (Attacks.mimicry ~protected:false ())

let test_mimicry_blocked () =
  check_blocked "mimicry vs ASC" (Attacks.mimicry ~protected:true ())

let test_ncd_unprotected () =
  check_succeeded "non-control-data vs unprotected"
    (Attacks.non_control_data ~protected:false ())

let test_ncd_blocked () =
  check_blocked "non-control-data vs ASC" (Attacks.non_control_data ~protected:true ())

let test_frankenstein_cross_blocked () =
  check_blocked_step "frankenstein cross-app" [ Oskernel.Violation.Control_flow ]
    (Attacks.frankenstein ~cross:true ())

let test_frankenstein_single_app_confined () =
  check_succeeded "frankenstein single-app chain" (Attacks.frankenstein ~cross:false ())

(* --- deny parity: the fast path must not change any verdict --- *)

(* Each fast-path layer accepts only inputs under which the reference
   checker would verify the same bytes, so every attack must be blocked at
   the exact same violation step with the deployed fast path armed. Each
   run function already asserts the expected step internally; here we
   additionally compare the step against the reference run of the same
   attack, and the legal single-application chain must still complete. *)
let step_of what = function
  | Attacks.Blocked { Attacks.b_step = Some s; _ } -> s
  | o -> Alcotest.failf "%s: expected a structured block, got %a" what Attacks.pp_outcome o

let test_fastpath_deny_parity () =
  List.iter
    (fun (name, attack) ->
      let reference = step_of (name ^ " (reference)") (attack ~fastpath:false) in
      let fast = step_of (name ^ " (fast path)") (attack ~fastpath:true) in
      Alcotest.(check string)
        (name ^ ": same violation step with the fast path armed")
        (Oskernel.Violation.step_name reference)
        (Oskernel.Violation.step_name fast))
    [ ("shellcode", fun ~fastpath -> Attacks.shellcode ~fastpath ~protected:true ());
      ("mimicry", fun ~fastpath -> Attacks.mimicry ~fastpath ~protected:true ());
      ( "non-control-data",
        fun ~fastpath -> Attacks.non_control_data ~fastpath ~protected:true () );
      ("frankenstein cross", fun ~fastpath -> Attacks.frankenstein ~fastpath ~cross:true ()) ];
  check_succeeded "frankenstein single-app chain (fast path)"
    (Attacks.frankenstein ~fastpath:true ~cross:false ())

(* --- the classification table (§4.1 attack classes) --- *)

(* Every step an attack may legitimately trip must classify to the attack's
   own name, the class asc_run's [violation] line prints. *)
let test_classification_table () =
  List.iter
    (fun (name, steps) ->
      List.iter
        (fun step ->
          Alcotest.(check string)
            (Printf.sprintf "%s via %s" name (Oskernel.Violation.step_name step))
            name
            (Oskernel.Violation.attack_class step))
        steps)
    Attacks.expected_steps;
  (* and the remaining steps map to their own documented classes *)
  Alcotest.(check string) "pattern is non-control-data" "non-control-data"
    (Oskernel.Violation.attack_class Oskernel.Violation.Pattern);
  Alcotest.(check string) "ext is non-control-data" "non-control-data"
    (Oskernel.Violation.attack_class Oskernel.Violation.Ext);
  Alcotest.(check string) "normalization is the symlink race" "symlink-race"
    (Oskernel.Violation.attack_class Oskernel.Violation.Normalization)

(* Each protected §4.1 attack's deny step classifies to the attack's own
   name: the class asc_run's [violation] line prints for it. *)
let test_blocked_attacks_classify () =
  List.iter
    (fun (name, outcome) ->
      Alcotest.(check string) (name ^ ": classified from its deny step") name
        (Oskernel.Violation.attack_class (step_of name outcome)))
    [ ("shellcode", Attacks.shellcode ~protected:true ());
      ("mimicry", Attacks.mimicry ~protected:true ());
      ("non-control-data", Attacks.non_control_data ~protected:true ()) ]

let () =
  Alcotest.run "attacks"
    [ ( "attacks",
        [ Alcotest.test_case "shellcode succeeds unprotected" `Quick test_shellcode_unprotected;
          Alcotest.test_case "shellcode blocked by ASC" `Quick test_shellcode_blocked;
          Alcotest.test_case "mimicry succeeds unprotected" `Quick test_mimicry_unprotected;
          Alcotest.test_case "mimicry blocked by ASC" `Quick test_mimicry_blocked;
          Alcotest.test_case "non-control-data succeeds unprotected" `Quick test_ncd_unprotected;
          Alcotest.test_case "non-control-data blocked by ASC" `Quick test_ncd_blocked;
          Alcotest.test_case "frankenstein cross-app blocked" `Quick
            test_frankenstein_cross_blocked;
          Alcotest.test_case "frankenstein confined to one app" `Quick
            test_frankenstein_single_app_confined;
          Alcotest.test_case "fast-path deny parity (full suite)" `Quick
            test_fastpath_deny_parity;
          Alcotest.test_case "classification table" `Quick test_classification_table;
          Alcotest.test_case "blocked attacks classify to their names" `Quick
            test_blocked_attacks_classify ] ) ]
