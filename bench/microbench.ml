(* Table 4 methodology: "executing each system call 10,000 times using a
   loop, and measuring the total number of CPU cycles using the Pentium
   processor's rdtsc instruction ... Each experiment was repeated 12 times;
   the highest and lowest readings were discarded, and the average of the
   remaining 10 readings is used". The rdcyc instruction is our rdtsc. The
   cycle model is deterministic, so all 12 readings would agree: each
   experiment here runs once, and [harness] re-proves the agreement on
   every run. *)

open Oskernel
module Cmac = Asc_crypto.Cmac

let key = Cmac.of_raw "microbench-key!!"
let personality = Personality.linux
let iterations = 10_000

let num sem = Option.get (Personality.number_of personality sem)

(* Assembly microbenchmark: rdcyc around a 10,000-iteration syscall loop;
   halts with the cycle delta in r1. Loop state lives in r4-r6, untouched by
   the kernel and by the installer's r7-r11/r14 instrumentation. *)
let loop_program ~body =
  Printf.sprintf
    {|
_start: rdcyc r4
        movi r5, 0
        movi r6, %d
Lloop:  bge r5, r6, Ldone
%s        addi r5, r5, 1
        jmp Lloop
Ldone:  rdcyc r3
        sub r1, r3, r4
        halt
        .bss
buf:    .space 4096
|}
    iterations body

type case = {
  c_name : string;
  c_body : string;          (* loop body assembly (may be empty) *)
  c_stdin : string;
  c_setup : Kernel.t -> unit;
}

let cases =
  [ { c_name = "getpid()"; c_stdin = ""; c_setup = ignore;
      c_body = Printf.sprintf "        movi r0, %d\n        sys\n" (num Syscall.Getpid) };
    { c_name = "gettimeofday()"; c_stdin = ""; c_setup = ignore;
      c_body =
        Printf.sprintf "        movi r0, %d\n        movi r1, buf\n        movi r2, 0\n        sys\n"
          (num Syscall.Gettimeofday) };
    { c_name = "read(4096)"; c_stdin = String.make ((iterations + 1) * 4096) 'r';
      c_setup = ignore;
      c_body =
        Printf.sprintf
          "        movi r0, %d\n        movi r1, 0\n        movi r2, buf\n        movi r3, 4096\n        sys\n"
          (num Syscall.Read) };
    { c_name = "write(4096)"; c_stdin = ""; c_setup = ignore;
      c_body =
        Printf.sprintf
          "        movi r0, %d\n        movi r1, 1\n        movi r2, buf\n        movi r3, 4096\n        sys\n"
          (num Syscall.Write) };
    { c_name = "brk()"; c_stdin = ""; c_setup = ignore;
      c_body = Printf.sprintf "        movi r0, %d\n        movi r1, 0\n        sys\n" (num Syscall.Brk) } ]

(* One run of [case]'s loop on a fresh kernel, armed with the reference
   checker or (with [fast]) the deployed fast path when [authenticated]:
   the per-iteration cycles the guest's rdcyc measured, the kernel's
   metrics registry (the checker's per-step counters and, with [fast], the
   fast-path layers'), and the host-side minor-heap words per iteration
   strictly around [Kernel.run]. *)
type run = {
  r_cycles : int;
  r_raw : string -> int;  (* registry value by name, 0 when absent *)
  r_words : int;
}

let run ~authenticated ?(fast = false) ?(control_flow = true) case =
  let img = Svm.Asm.assemble_exn (loop_program ~body:case.c_body) in
  let img =
    if not authenticated then img
    else
      let options = { Asc_core.Installer.default_options with control_flow } in
      match Asc_core.Installer.install ~key ~personality ~options ~program:case.c_name img with
      | Ok inst -> inst.Asc_core.Installer.image
      | Error e -> failwith (case.c_name ^ ": " ^ e)
  in
  let kernel = Kernel.create ~personality () in
  case.c_setup kernel;
  if authenticated then
    Kernel.set_monitor kernel
      (Some
         (Asc_core.Checker.monitor_with ~kernel ~key
            (if fast then Some (Asc_core.Checker.fastpath ~key kernel) else None)));
  let proc = Kernel.spawn kernel ~stdin:case.c_stdin ~program:case.c_name img in
  let mw0 = Gc.minor_words () in
  match Kernel.run kernel proc ~max_cycles:4_000_000_000 with
  | Svm.Machine.Halted _ ->
    let words = int_of_float (Gc.minor_words () -. mw0) / iterations in
    let reg = Kernel.metrics kernel in
    { r_cycles = proc.Process.machine.Svm.Machine.regs.(1) / iterations;
      r_raw = (fun name -> Option.value ~default:0 (Asc_obs.Metrics.value reg name));
      r_words = words }
  | Svm.Machine.Killed r -> failwith (case.c_name ^ " killed: " ^ r)
  | _ -> failwith (case.c_name ^ " did not complete")

let empty_case = { c_name = "empty"; c_body = ""; c_stdin = ""; c_setup = ignore }

(* The empty unauthenticated loop: its cycles per iteration, and the minor
   words the bench harness itself allocates per iteration (interpreter
   loop, run bookkeeping), subtracted from every row so cycles and
   [alloc_minor_words_per_call] measure the trap path, not the loop. The
   paper averaged 12 trials; the cycle model is deterministic, so one run
   is the measurement, and running the empty loop twice re-proves that. *)
let harness =
  lazy
    (let a = run ~authenticated:false empty_case in
     let b = run ~authenticated:false empty_case in
     if a.r_cycles <> b.r_cycles || a.r_words <> b.r_words then
       failwith "empty loop: two runs disagree, so one run is not the measurement";
     a)

let loop_cost () = (Lazy.force harness).r_cycles
let per_call r = r.r_cycles - loop_cost ()

(* The checker's verification steps (§3.4), as its counters name them. *)
let step_names = [ "call_mac"; "string_mac"; "control_flow"; "ext" ]

let json_of fields = Asc_obs.Json.Obj (List.map (fun (k, n) -> (k, Asc_obs.Json.Int n)) fields)

(* Table 4's decomposition: per-call cycles attributed to each verification
   step, read back from the checker's step counters, and their total. The
   steps sum to the total by construction (see [Asc_core.Checker]), which
   holds exactly on the raw counters; the per-call values may round each
   step independently. *)
let verification_of ~fast case r =
  let raw s = r.r_raw ("checker.cycles." ^ s) in
  if List.fold_left (fun acc s -> acc + raw s) 0 step_names <> raw "total" then
    failwith (case.c_name ^ ": verification steps do not sum to the total");
  List.map
    (fun s ->
      (* with the fast path on, the first iteration pays the CMAC cost and
         later ones the fast-path cost, so per-step charges are not uniform *)
      if (not fast) && raw s mod iterations <> 0 then
        failwith
          (Printf.sprintf "%s: checker.cycles.%s not uniform across iterations" case.c_name s);
      (s, raw s / iterations))
    (step_names @ [ "total" ])

(* One row per case: the reference checker and the deployed fast path,
   one run each. The Auth+fast column is gated here rather than in a test
   so every benchmark run re-proves the headline properties: precomp and
   cfpre hit on a repeated call site, the fast path cuts the per-call
   overhead over the reference checker at least 3x, and it cuts the
   control-flow step at least 3x. *)
let table4 () =
  Format.printf "@.Table 4: Effect of authentication (cycles per call)@.";
  Format.printf "%-16s %10s %14s %10s %10s %10s@." "System Call" "Original" "Authenticated"
    "Overhead" "Auth+fast" "Ovh+fast";
  let pct orig v = 100. *. float_of_int (v - orig) /. float_of_int orig in
  let rows =
    List.map
      (fun case ->
        let fail fmt = Printf.ksprintf (fun m -> failwith (case.c_name ^ ": " ^ m)) fmt in
        let orig = per_call (run ~authenticated:false case) in
        let reference = run ~authenticated:true case in
        let auth = per_call reference in
        let v = verification_of ~fast:false case reference in
        let fast = run ~authenticated:true ~fast:true case in
        let auth_fast = per_call fast in
        let v_fast = verification_of ~fast:true case fast in
        let raw = fast.r_raw in
        if raw "precomp.hits" = 0 then fail "precompiled-site table never hit";
        if raw "cfpre.hits" = 0 then fail "control-flow bitset table never hit";
        if 3 * (auth_fast - orig) > auth - orig then
          fail "fast path overhead not cut 3x (%d vs %d cycles/call)" (auth_fast - orig)
            (auth - orig);
        let cf = List.assoc "control_flow" in
        if 3 * cf v_fast > cf v then
          fail "fast control_flow not cut 3x (%d vs %d per call)" (cf v_fast) (cf v);
        (* the allocation gauge is read on the deployed configuration; the
           checker's alloc attribution invariant is exact on raw counters *)
        let alloc = fast.r_words - (Lazy.force harness).r_words in
        let araw s = raw ("checker.alloc." ^ s) in
        if List.fold_left (fun acc s -> acc + araw s) 0 step_names <> araw "total" then
          fail "alloc steps do not sum to checker.alloc.total";
        let a = List.map (fun s -> (s, araw s / iterations)) (step_names @ [ "telemetry" ]) in
        let known = List.fold_left (fun acc (_, n) -> acc + n) 0 a in
        (* [other] closes the decomposition by construction: dispatch,
           interpreter and unattributed checker words. It must not be
           negative — that would mean the harness baseline over-subtracts
           or a step counter double-counts. *)
        if known > alloc then
          fail "attributed alloc (%d words) exceeds per-call gauge (%d)" known alloc;
        (* the monitor's scratch buffers must take each step's host
           allocation to (near) zero: control flow's budget is cfpre's
           probe, and the call MAC's is precomp's live probe, which
           rebuilds nothing *)
        if cf a > 16 then fail "cfpre control_flow allocates %d words/call (budget 16)" (cf a);
        let cm = List.assoc "call_mac" in
        if cm a > 16 then fail "precomp call_mac allocates %d words/call (budget 16)" (cm a);
        (* and the whole call: the rows read 11-17 words, the ledger
           entry's 7 included *)
        if alloc > 18 then fail "the fast path allocates %d words/call (budget 18)" alloc;
        Format.printf "%-16s %10d %14d %9.1f%% %10d %9.1f%%@." case.c_name orig auth
          (pct orig auth) auth_fast (pct orig auth_fast);
        let open Asc_obs.Json in
        let counters layer fields =
          (layer, json_of (List.map (fun f -> (f, raw (layer ^ "." ^ f))) fields))
        in
        Obj
          [ ("name", Str case.c_name);
            ("original", Int orig);
            ("authenticated", Int auth);
            ("overhead_pct", Float (pct orig auth));
            ("verification", json_of v);
            ("alloc_minor_words_per_call", Int alloc);
            (* per-step minor words; fields sum exactly to
               alloc_minor_words_per_call ([other] is the remainder,
               gated non-negative above) *)
            ("alloc", json_of (a @ [ ("other", alloc - known) ]));
            ("authenticated_fast", Int auth_fast);
            ("overhead_fast_pct", Float (pct orig auth_fast));
            ("verification_fast", json_of v_fast);
            counters "precomp" [ "hits"; "misses"; "resumes"; "fallbacks"; "compiles" ];
            counters "cfpre" [ "hits"; "misses"; "fallbacks"; "compiles"; "cycles_saved" ];
            counters "vcache" [ "hits"; "misses" ] ])
      cases
  in
  Format.printf "%-16s %10d@." "rdtsc cost" Svm.Cost_model.rdcyc_cost;
  Format.printf "%-16s %10d@." "loop cost" (loop_cost ());
  Format.printf "%-16s %10d words/iter@." "alloc harness" (Lazy.force harness).r_words;
  let open Asc_obs.Json in
  Export.write ~name:"table4"
    (Obj
       [ ("table", Str "table4");
         ("iterations", Int iterations);
         ("rdtsc_cost", Int Svm.Cost_model.rdcyc_cost);
         ("loop_cost", Int (loop_cost ()));
         ("alloc_harness_words", Int (Lazy.force harness).r_words);
         ("rows", List rows) ])

(* ablation: authenticated calls with and without control-flow policies *)
let ablation_control_flow () =
  Format.printf "@.Ablation: control-flow (predecessor set) policy cost@.";
  Format.printf "%-16s %14s %16s %12s@." "System Call" "ASC (full)" "ASC (no cf)" "cf share";
  List.iter
    (fun case ->
      let full = per_call (run ~authenticated:true case) in
      let nocf = per_call (run ~authenticated:true ~control_flow:false case) in
      Format.printf "%-16s %14d %16d %11.1f%%@." case.c_name full nocf
        (100. *. float_of_int (full - nocf) /. float_of_int full))
    cases

(* ablation: in-kernel ASC checking vs a user-space policy daemon that pays
   two context switches per checked call (§2.3's comparison) *)
let ablation_userspace () =
  Format.printf "@.Ablation: enforcement placement (getpid microbenchmark)@.";
  let case = List.hd cases in
  let orig = per_call (run ~authenticated:false case) in
  let asc = per_call (run ~authenticated:true case) in
  (* user-space daemon: trained policy allowing everything, Systrace-style *)
  let daemon_cost () =
    let img = Svm.Asm.assemble_exn (loop_program ~body:case.c_body) in
    let policy = { Systrace.named = Syscall.Set.of_list Syscall.all; use_aliases = false } in
    let kernel = Kernel.create ~personality () in
    Kernel.set_monitor kernel (Some (Systrace.monitor ~personality policy));
    let proc = Kernel.spawn kernel ~program:"daemon" img in
    match Kernel.run kernel proc ~max_cycles:4_000_000_000 with
    | Svm.Machine.Halted _ ->
      (proc.Process.machine.Svm.Machine.regs.(1) / iterations) - loop_cost ()
    | _ -> failwith "daemon run failed"
  in
  let daemon = daemon_cost () in
  Format.printf "  unmonitored:            %6d cycles/call@." orig;
  Format.printf "  ASC in-kernel check:    %6d cycles/call (+%d)@." asc (asc - orig);
  Format.printf "  user-space daemon:      %6d cycles/call (+%d, 2 context switches)@." daemon
    (daemon - orig);
  Format.printf
    "  (the daemon pays switching before checking anything; ASC's whole budget@.";
  Format.printf "   is the MAC computation itself)@."
