(* The precompiled-site table (Asc_core.Precomp).

   Like the vcache, the table is a pure accelerator: its fast path may only
   prove calls whose rebuilt MAC matches the supplied tag, never change a
   verdict. The unit tests pin the verdict lattice (miss / memo hit /
   streaming resume / fallback), the suffix-patching soundness (a resumed
   MAC is exactly the slow path's MAC of the live call), the per-pid
   lifecycle and the site bound. The differential properties run randomly
   generated programs — and random byte mutations of an installed binary —
   on a precomp-on and a precomp-off kernel and require identical
   observable behavior, with the saved cycles exactly accounted. *)

open Oskernel
module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Descriptor = Asc_core.Descriptor
module Precomp = Asc_core.Precomp

let key = Cmac.of_raw "precomp-test-key"
let personality = Personality.linux

(* ---- unit tests on the table proper ---- *)

let create ?max_sites () =
  Precomp.create ?max_sites ~key ~registry:(Asc_obs.Metrics.create ()) ()

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
      | Precomp.Miss -> Format.fprintf ppf "Miss"
      | Precomp.Hit { suffix_len; encoded_len } ->
        Format.fprintf ppf "Hit(%d/%d)" suffix_len encoded_len
      | Precomp.Resumed { suffix_len; encoded_len } ->
        Format.fprintf ppf "Resumed(%d/%d)" suffix_len encoded_len
      | Precomp.Fallback Precomp.Statics_mismatch -> Format.fprintf ppf "Fallback(statics)"
      | Precomp.Fallback Precomp.Tag_mismatch -> Format.fprintf ppf "Fallback(tag)")
    ( = )

let test_compile_and_hit () =
  let t = create () in
  let call = mk () in
  let len = String.length (Encoded.encode call) in
  Alcotest.check verdict "cold table misses" Precomp.Miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  compile_call t ~pid:1 call;
  Alcotest.(check int) "one entry" 1 (Precomp.size t);
  Alcotest.check verdict "same call memo-hits"
    (Precomp.Hit { suffix_len = len - Encoded.static_prefix_len; encoded_len = len })
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "hit counted" 1 (Precomp.hits t);
  (* a forged tag on otherwise-identical bytes must not be proved *)
  Alcotest.check verdict "forged tag falls back" (Precomp.Fallback Precomp.Tag_mismatch)
    (Precomp.check t ~pid:1 ~call ~supplied:(String.make 16 'f'))

let test_statics_mismatch_falls_back () =
  let t = create () in
  let call = mk () in
  compile_call t ~pid:1 call;
  Alcotest.check verdict "different block id" (Precomp.Fallback Precomp.Statics_mismatch)
    (Precomp.check t ~pid:1 ~call:(mk ~block:8 ()) ~supplied:(mac_of (mk ~block:8 ())));
  Alcotest.check verdict "different site misses" Precomp.Miss
    (Precomp.check t ~pid:1 ~call:(mk ~site:0x44 ()) ~supplied:(mac_of (mk ~site:0x44 ())));
  Alcotest.check verdict "different pid misses" Precomp.Miss
    (Precomp.check t ~pid:2 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "no false hits" 0 (Precomp.hits t)

let test_resume_moves_memo () =
  let t = create () in
  compile_call t ~pid:1 (mk ~cval:42 ());
  let call' = mk ~cval:43 () in
  let len = String.length (Encoded.encode call') in
  Alcotest.check verdict "changed argument resumes"
    (Precomp.Resumed { suffix_len = len - Encoded.static_prefix_len; encoded_len = len })
    (Precomp.check t ~pid:1 ~call:call' ~supplied:(mac_of call'));
  Alcotest.check verdict "memo moved: second time is a hit"
    (Precomp.Hit { suffix_len = len - Encoded.static_prefix_len; encoded_len = len })
    (Precomp.check t ~pid:1 ~call:call' ~supplied:(mac_of call'));
  (* a resume against a wrong tag proves nothing and remembers nothing *)
  Alcotest.check verdict "wrong tag on a changed call falls back"
    (Precomp.Fallback Precomp.Tag_mismatch)
    (Precomp.check t ~pid:1 ~call:(mk ~cval:44 ()) ~supplied:(mac_of call'));
  Alcotest.check verdict "failed resume did not move the memo"
    (Precomp.Hit { suffix_len = len - Encoded.static_prefix_len; encoded_len = len })
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
    | Precomp.Resumed _ | Precomp.Hit _ -> ()
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
  Precomp.prepare_pid t 1;
  Alcotest.check verdict "exec emptied pid 1" Precomp.Miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  (match Precomp.check t ~pid:2 ~call ~supplied:(mac_of call) with
   | Precomp.Hit _ -> ()
   | v -> Alcotest.failf "pid 2 should stay warm, got %a" (Alcotest.pp verdict) v);
  Precomp.invalidate_pid t 2;
  Alcotest.(check int) "both invalidations counted" 2 (Precomp.invalidations t);
  Alcotest.(check int) "table empty" 0 (Precomp.size t)

let test_max_sites_bound () =
  let t = create ~max_sites:1 () in
  compile_call t ~pid:1 (mk ~site:0x40 ());
  compile_call t ~pid:1 (mk ~site:0x44 ());
  Alcotest.(check int) "bound holds" 1 (Precomp.size t);
  Alcotest.(check int) "one compile" 1 (Precomp.compiles t);
  Alcotest.check verdict "beyond-bound site keeps missing" Precomp.Miss
    (Precomp.check t ~pid:1 ~call:(mk ~site:0x44 ()) ~supplied:(mac_of (mk ~site:0x44 ())));
  Alcotest.check_raises "max_sites 0 refused"
    (Invalid_argument "Precomp.create: max_sites must be >= 1") (fun () ->
      ignore (create ~max_sites:0 ()))

(* ---- kernel-level lifecycle: execve and teardown invalidation ---- *)

let install ?(program_id = 1) ~program src =
  let img = Minic.Driver.compile_exn ~personality src in
  match
    Asc_core.Installer.install ~key ~personality
      ~options:{ Asc_core.Installer.default_options with program_id }
      ~program img
  with
  | Ok inst -> inst.Asc_core.Installer.image
  | Error e -> Alcotest.failf "install %s: %s" program e

let run_image ?(use_precomp = false) ?(setup = fun _ -> ()) image =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let precomp =
    if use_precomp then Some (Precomp.create ~key ~registry:(Kernel.metrics kernel) ())
    else None
  in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ?precomp ()));
  setup kernel;
  let proc = Kernel.spawn kernel ~program:"pt" image in
  let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
  (kernel, proc, stop, precomp)

let test_execve_invalidation () =
  (* A warms its site table, then execs B: A's entries were compiled against
     an image that is gone, so the exec must rebuild the pid's table (and B
     then compiles its own sites). *)
  let b_img = install ~program_id:2 ~program:"progB" "int main() { getpid(); return 4; }" in
  let a_img =
    install ~program_id:1 ~program:"progA"
      {|
int main() {
  int k;
  for (k = 0; k < 5; k = k + 1) { getpid(); }
  execve("/bin/progB", 0, 0);
  return 1;
}
|}
  in
  let _, _, stop, precomp =
    run_image ~use_precomp:true
      ~setup:(fun kernel -> Kernel.install_binary kernel ~path:"/bin/progB" b_img)
      a_img
  in
  (match stop with
   | Svm.Machine.Halted 4 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
   | _ -> Alcotest.fail "execve chain did not reach B's exit");
  let pc = Option.get precomp in
  Alcotest.(check bool) "the loop hit the table" true (Precomp.hits pc > 0);
  Alcotest.(check bool) "exec dropped the pid's entries" true (Precomp.invalidations pc > 0)

let test_teardown_invalidation () =
  let img =
    install ~program:"loop"
      "int main() { int k; for (k = 0; k < 8; k = k + 1) { getpid(); } return 0; }"
  in
  let _, _, stop, precomp = run_image ~use_precomp:true img in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "run did not halt cleanly");
  let pc = Option.get precomp in
  Alcotest.(check bool) "the run populated the table" true (Precomp.hits pc > 0);
  Alcotest.(check int) "teardown left it empty" 0 (Precomp.size pc)

let test_hot_loop_accounting () =
  (* the cycles the precompiled run saves are exactly the cycles-saved
     gauge: every divergence from the slow path is accounted *)
  let img =
    install ~program:"hot"
      "int main() { int k; for (k = 0; k < 50; k = k + 1) { getpid(); } return 0; }"
  in
  let _, p_off, _, _ = run_image ~use_precomp:false img in
  let _, p_on, _, precomp = run_image ~use_precomp:true img in
  let pc = Option.get precomp in
  let off = p_off.Process.machine.Svm.Machine.cycles in
  let on = p_on.Process.machine.Svm.Machine.cycles in
  Alcotest.(check bool) "table saves cycles" true (on < off);
  Alcotest.(check int) "savings fully accounted" (off - on) (Precomp.cycles_saved pc)

(* ---- differential property: precomp on vs off on random programs ---- *)

let loop_counter = ref 0

let fresh () =
  incr loop_counter;
  Printf.sprintf "p%d" !loop_counter

(* Small terminating MiniC programs biased toward repeated syscalls (loops
   around call statements) so the site table actually gets traffic. *)
let gen_program =
  let open QCheck.Gen in
  let var i = Printf.sprintf "v%d" (i mod 3) in
  let gen_call =
    let* c = int_bound 5 in
    let u = fresh () in
    return
      (match c with
       | 0 -> "getpid();"
       | 1 -> "write(1, \"ab\", 2);"
       | 2 ->
         Printf.sprintf
           "{ int f%s = open(\"/tmp/v\", 65, 420); if (f%s >= 0) { write(f%s, \"y\", 1); close(f%s); } }"
           u u u u
       | 3 -> "access(\"/etc/q\", 4);"
       | 4 -> Printf.sprintf "{ char t%s[16]; gettimeofday(t%s, 0); }" u u
       | _ -> "puts_str(\"t\\n\");")
  in
  let gen_stmt =
    oneof
      [ (let* i = int_bound 2 in
         let* v = int_bound 999 in
         return (Printf.sprintf "%s = %s + %d;" (var i) (var ((i + 1) mod 3)) v));
        gen_call;
        (let* body = gen_call in
         let k = fresh () in
         return
           (Printf.sprintf "{ int %s; for (%s = 0; %s < 4; %s = %s + 1) { %s } }" k k k k k
              body)) ]
  in
  let* stmts = list_size (int_range 1 10) gen_stmt in
  return
    (Printf.sprintf "int v0; int v1; int v2;\nint main() {\n  %s\n  return v0 %% 100;\n}"
       (String.concat "\n  " stmts))

let arbitrary_program = QCheck.make ~print:(fun s -> s) gen_program

(* Everything a run observably did: how it stopped, what it printed, every
   trace entry, and the audit verdicts (violation steps only — forensic
   snapshots embed cycle counts, which legitimately differ between
   configurations). *)
let observed kernel (proc : Process.t) stop =
  let verdicts =
    List.filter_map
      (function
        | Kernel.Violation { violation = v; _ } -> Some ("v:" ^ Violation.step_name v.Violation.v_step)
        | Kernel.Denied { reason; _ } -> Some ("d:" ^ reason)
        | Kernel.Execve { path; _ } -> Some ("e:" ^ path)
        | Kernel.Alert _ -> None)
      (Kernel.audit_log kernel)
  in
  (stop, Kernel.stdout_of proc, Kernel.trace kernel, verdicts)

let prop_differential =
  QCheck.Test.make ~name:"precomp on/off runs are observably identical" ~count:40
    arbitrary_program (fun src ->
      match Minic.Driver.compile ~personality src with
      | Error e -> QCheck.Test.fail_reportf "generated program does not compile: %s" e
      | Ok img ->
        (match Asc_core.Installer.install ~key ~personality ~program:"pt" img with
         | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
         | Ok inst ->
           let image = inst.Asc_core.Installer.image in
           let k_off, p_off, stop_off, _ = run_image ~use_precomp:false image in
           let k_on, p_on, stop_on, precomp = run_image ~use_precomp:true image in
           let obs_off = observed k_off p_off stop_off in
           let obs_on = observed k_on p_on stop_on in
           if obs_off <> obs_on then
             QCheck.Test.fail_reportf "precomp-on run diverged from precomp-off";
           (match stop_off with
            | Svm.Machine.Killed r -> QCheck.Test.fail_reportf "false alarm: %s" r
            | _ -> ());
           let pc = Option.get precomp in
           let off = p_off.Process.machine.Svm.Machine.cycles in
           let on = p_on.Process.machine.Svm.Machine.cycles in
           if on > off then
             QCheck.Test.fail_reportf "precomp-on run cost more cycles (%d > %d)" on off;
           off - on = Precomp.cycles_saved pc))

(* ---- differential property: mutations deny identically ---- *)

let fixed_victim =
  lazy
    (let src =
       {|
int main() {
  int k;
  for (k = 0; k < 3; k = k + 1) {
    int fd = open("/tmp/f", 65, 420);
    write(fd, "fuzzdata", 8);
    close(fd);
  }
  puts_str("done\n");
  return 0;
}
|}
     in
     let img = Minic.Driver.compile_exn ~personality src in
     match Asc_core.Installer.install ~key ~personality ~program:"fuzz" img with
     | Ok inst -> Svm.Obj_file.serialize inst.Asc_core.Installer.image
     | Error e -> failwith e)

let run_mutated ~use_precomp img =
  let kernel = Kernel.create ~personality () in
  let precomp =
    if use_precomp then Some (Precomp.create ~key ~registry:(Kernel.metrics kernel) ())
    else None
  in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ?precomp ()));
  match Kernel.spawn kernel ~program:"mut" img with
  | exception Invalid_argument _ -> None (* image refused before any code ran *)
  | proc ->
    let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
    let steps =
      List.filter_map
        (function
          | Kernel.Violation { violation = v; _ } -> Some (Violation.step_name v.Violation.v_step)
          | _ -> None)
        (Kernel.audit_log kernel)
    in
    Some (stop, Kernel.stdout_of proc, steps)

(* A guest that reads the modeled cycle counter sees the fast path's lower
   charges, so its output may legitimately differ on and off — the same
   reason a runaway loop's [Cycle_limit] stop is exempt. *)
let reads_cycle_counter img =
  match Svm.Obj_file.text_section img with
  | exception Not_found -> false
  | text ->
    let code = Bytes.unsafe_of_string text.Svm.Obj_file.sec_payload in
    let rec scan pos =
      pos + 8 <= Bytes.length code
      && ((match Svm.Isa.decode code ~pos with Some (Svm.Isa.Rdcyc _) -> true | _ -> false)
          || scan (pos + 8))
    in
    scan 0

let mutant (pos, byte) =
  let b = Bytes.of_string (Lazy.force fixed_victim) in
  let pos = 8 + (pos * 131 mod (Bytes.length b - 8)) in
  Bytes.set b pos (Char.chr byte);
  Svm.Obj_file.parse (Bytes.to_string b)

let mutation_parity case =
  match mutant case with
  | Error _ -> true (* corrupt image rejected at parse time *)
  | Ok img when reads_cycle_counter img -> true
  | Ok img ->
    (match (run_mutated ~use_precomp:false img, run_mutated ~use_precomp:true img) with
     | None, None -> true
     | Some (Svm.Machine.Cycle_limit, _, _), Some _
     | Some _, Some (Svm.Machine.Cycle_limit, _, _) ->
       true (* a runaway loop hits the budget at different points *)
     | Some a, Some b ->
       if a = b then true
       else QCheck.Test.fail_reportf "mutation verdict diverged precomp on/off"
     | Some _, None | None, Some _ -> QCheck.Test.fail_reportf "image load diverged precomp on/off")

let prop_mutation_deny_parity =
  QCheck.Test.make ~name:"mutations trip identical verdicts precomp on/off" ~count:200
    QCheck.(pair small_nat (int_bound 255))
    mutation_parity

(* Regression: this mutation turns a text byte into an [Rdcyc]. Both runs
   halt cleanly, but the guest's output depends on the modeled cycle count,
   which the fast path lowers by design. *)
let test_mutation_rdcyc () =
  (match mutant (2, 56) with
   | Ok img -> Alcotest.(check bool) "mutant reads the cycle counter" true (reads_cycle_counter img)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "exempt, not diverged" true (mutation_parity (2, 56))

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_differential; prop_mutation_deny_parity ]

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
          Alcotest.test_case "max_sites bound" `Quick test_max_sites_bound ] );
      ( "lifecycle",
        [ Alcotest.test_case "execve rebuilds the pid's table" `Quick
            test_execve_invalidation;
          Alcotest.test_case "teardown empties the table" `Quick test_teardown_invalidation;
          Alcotest.test_case "hot loop savings accounted" `Quick test_hot_loop_accounting ] );
      ( "differential",
        props
        @ [ Alcotest.test_case "rdcyc mutation (2, 56) exempt" `Quick test_mutation_rdcyc ] ) ]
