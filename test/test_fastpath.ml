(* The deployed fast path (Asc_core.Checker.fastpath) against the
   reference checker.

   The checker runs in one of two configurations: the paper's §3.4
   reference path, or that path behind the vcache, precomp and cfpre
   layers armed as one unit. The fast path is a pure accelerator. Each
   layer accepts only inputs under which the reference path would verify
   the same bytes, and anything else falls back to the reference path, so
   it may lower cycles but never change a verdict. The differential
   properties run random programs, random byte mutations of an installed
   binary, and writes to the checked structures after the fast path has
   warmed up, under both configurations, and require identical
   observable behaviour, as must the paper's workload programs. The
   cycles the fast path saves must equal the three layers' cycles-saved
   gauges exactly. One fixed tamper per layer, struck after that layer
   has warmed up, must be denied exactly as the reference denies it. The
   lifecycle tests pin, layer by layer, the per-pid drop on exec and on
   exit, and a vcache whose table is full must flush without changing a
   verdict. *)

open Oskernel
module Cmac = Asc_crypto.Cmac
module Checker = Asc_core.Checker
module Vcache = Asc_core.Vcache
module Precomp = Asc_core.Precomp
module Cfpre = Asc_core.Cfpre

let key = Cmac.of_raw "fastpath-testkey"
let personality = Personality.linux

let install ?(program_id = 1) ~program src =
  let img = Minic.Driver.compile_exn ~personality src in
  match
    Asc_core.Installer.install ~key ~personality
      ~options:{ Asc_core.Installer.default_options with program_id }
      ~program img
  with
  | Ok inst -> inst.Asc_core.Installer.image
  | Error e -> Alcotest.failf "install %s: %s" program e

type config =
  | Reference
  | Fast
  | Full_vcache
      (* the fast path with pid 1's vcache one entry short of the bound, so
         the program's second distinct string flushes it *)

let arm config kernel =
  match config with
  | Reference -> None
  | Fast -> Some (Checker.fastpath ~key kernel)
  | Full_vcache ->
    let fp = Checker.fastpath ~key kernel in
    for i = 1 to Asc_core.Pid_table.bound - 1 do
      Vcache.remember fp.vcache ~pid:1 ~bytes:(string_of_int i) ~mac:(String.make 16 'f')
    done;
    Some fp

let run_image ?(setup = fun _ -> ()) ?stdin config image =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let fast = arm config kernel in
  Kernel.set_monitor kernel (Some (Checker.monitor_with ~kernel ~key fast));
  setup kernel;
  let proc = Kernel.spawn kernel ?stdin ~program:"ft" image in
  let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
  (kernel, proc, stop, fast)

let cycles (p : Process.t) = p.Process.machine.Svm.Machine.cycles

(* every cycle the fast path skips is credited to exactly one layer *)
let cycles_saved (fp : Checker.fastpath) =
  Vcache.cycles_saved fp.vcache + Precomp.cycles_saved fp.precomp
  + Cfpre.cycles_saved fp.cfpre

(* ---- the unit: all three layers or none ---- *)

let test_subsets_refused () =
  let kernel = Kernel.create ~personality () in
  let { Checker.vcache; precomp; cfpre } = Checker.fastpath ~key kernel in
  let hooks0 = List.length kernel.Kernel.lifecycle_hooks in
  List.iter
    (fun (name, arm) ->
      Alcotest.check_raises name
        (Invalid_argument
           "Checker.monitor: arm vcache, precomp and cfpre together or not at all")
        (fun () -> ignore (arm ())))
    [ ("vcache only", fun () -> Checker.monitor ~kernel ~key ~vcache ());
      ("precomp only", fun () -> Checker.monitor ~kernel ~key ~precomp ());
      ("cfpre only", fun () -> Checker.monitor ~kernel ~key ~cfpre ());
      ("vcache + precomp", fun () -> Checker.monitor ~kernel ~key ~vcache ~precomp ());
      ("vcache + cfpre", fun () -> Checker.monitor ~kernel ~key ~vcache ~cfpre ());
      ("precomp + cfpre", fun () -> Checker.monitor ~kernel ~key ~precomp ~cfpre ()) ];
  Alcotest.(check int) "a refused subset registers no hook" hooks0
    (List.length kernel.Kernel.lifecycle_hooks);
  ignore (Checker.monitor ~kernel ~key ~vcache ~precomp ~cfpre ());
  Alcotest.(check int) "the full set registers one hook" (hooks0 + 1)
    (List.length kernel.Kernel.lifecycle_hooks);
  ignore (Checker.monitor ~kernel ~key ());
  Alcotest.(check int) "the reference checker registers none" (hooks0 + 1)
    (List.length kernel.Kernel.lifecycle_hooks)

(* ---- kernel-level lifecycle: execve and teardown ---- *)

(* getpid exercises precomp and cfpre; the constant pathname of access is
   an authenticated string, which only the vcache accelerates *)
let loop_src n =
  Printf.sprintf
    "int main() { int k; for (k = 0; k < %d; k = k + 1) { getpid(); access(\"/etc/q\", 4); } \
     return 0; }"
    n

(* One row per layer, so a lifecycle failure names the layer that kept
   stale state. *)
type layer = {
  name : string;
  hits : Checker.fastpath -> int;
  invalidations : Checker.fastpath -> int;
  size : Checker.fastpath -> int;
}

let layers =
  [ { name = "vcache";
      hits = (fun fp -> Vcache.hits fp.vcache);
      invalidations = (fun fp -> Vcache.invalidations fp.vcache);
      size = (fun fp -> Vcache.size fp.vcache) };
    { name = "precomp";
      hits = (fun fp -> Precomp.hits fp.precomp);
      invalidations = (fun fp -> Precomp.invalidations fp.precomp);
      size = (fun fp -> Precomp.size fp.precomp) };
    { name = "cfpre";
      hits = (fun fp -> Cfpre.hits fp.cfpre);
      invalidations = (fun fp -> Cfpre.invalidations fp.cfpre);
      size = (fun fp -> Cfpre.size fp.cfpre) } ]

let check_every_layer_hit what fp =
  List.iter
    (fun l -> Alcotest.(check bool) (Printf.sprintf "%s: %s hit" what l.name) true (l.hits fp > 0))
    layers

(* A warms every layer, then execs B: A's entries were verified against an
   image that is gone, so the exec must drop them in all three *)
let execve_run =
  lazy
    (let b_img = install ~program_id:2 ~program:"progB" "int main() { getpid(); return 4; }" in
     let a_img =
       install ~program_id:1 ~program:"progA"
         {|
int main() {
  int k;
  for (k = 0; k < 5; k = k + 1) { getpid(); access("/etc/q", 4); }
  execve("/bin/progB", 0, 0);
  return 1;
}
|}
     in
     let _, _, stop, fast =
       run_image Fast
         ~setup:(fun kernel -> Kernel.install_binary kernel ~path:"/bin/progB" b_img)
         a_img
     in
     (match stop with
      | Svm.Machine.Halted 4 -> ()
      | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
      | _ -> Alcotest.fail "execve chain did not reach B's exit");
     Option.get fast)

let test_execve_invalidation layer () =
  let fp = Lazy.force execve_run in
  Alcotest.(check bool) "A's loop hit it" true (layer.hits fp > 0);
  Alcotest.(check bool) "exec dropped the pid's entries" true (layer.invalidations fp > 0)

(* process exit drops the pid's entries, so a later process that happens
   to get the same pid can never see this image's warm state *)
let teardown_run =
  lazy
    (let _, _, stop, fast = run_image Fast (install ~program:"loop" (loop_src 8)) in
     (match stop with
      | Svm.Machine.Halted 0 -> ()
      | _ -> Alcotest.fail "run did not halt cleanly");
     Option.get fast)

let test_teardown_invalidation layer () =
  let fp = Lazy.force teardown_run in
  Alcotest.(check bool) "the run hit it" true (layer.hits fp > 0);
  Alcotest.(check int) "teardown left it empty" 0 (layer.size fp)

(* ---- accounting ---- *)

let test_hot_loop_accounting () =
  (* reference cycles − fast cycles = the three layers' cycles saved:
     every divergence from the reference path is accounted, nothing else
     moved *)
  let img = install ~program:"hot" (loop_src 50) in
  let _, p_ref, _, _ = run_image Reference img in
  let _, p_fast, _, fast = run_image Fast img in
  let fp = Option.get fast in
  check_every_layer_hit "the hot loop" fp;
  Alcotest.(check bool) "the fast path saves cycles" true (cycles p_fast < cycles p_ref);
  Alcotest.(check int) "savings fully accounted" (cycles p_ref - cycles p_fast) (cycles_saved fp)

(* Everything a run observably did: how it stopped, what it printed, every
   trace entry, and the audit verdicts (violation steps only — forensic
   snapshots embed cycle counts, which legitimately differ between
   configurations). *)
let observed kernel (proc : Process.t) stop =
  let verdicts =
    List.filter_map
      (function
        | Kernel.Violation { violation = v; _ } ->
          Some ("v:" ^ Violation.step_name v.Violation.v_step)
        | Kernel.Denied { reason; _ } -> Some ("d:" ^ reason)
        | Kernel.Execve { path; _ } -> Some ("e:" ^ path)
        | Kernel.Alert _ -> None)
      (Kernel.audit_log kernel)
  in
  (stop, Kernel.stdout_of proc, Kernel.trace kernel, verdicts)

(* [config] runs observably like the reference on [image], never costs
   more cycles, and saves exactly what its layers account; returns those
   layers *)
let agrees_with_reference ?setup ?stdin ~what config image =
  let k_ref, p_ref, stop_ref, _ = run_image ?setup ?stdin Reference image in
  let k, p, stop, fast = run_image ?setup ?stdin config image in
  if observed k_ref p_ref stop_ref <> observed k p stop then
    QCheck.Test.fail_reportf "%s: run diverged from the reference" what;
  (match stop_ref with
   | Svm.Machine.Killed r -> QCheck.Test.fail_reportf "false alarm: %s" r
   | _ -> ());
  if cycles p > cycles p_ref then
    QCheck.Test.fail_reportf "%s: cost more cycles (%d > %d)" what (cycles p) (cycles p_ref);
  let fp = Option.get fast in
  if cycles p_ref - cycles p <> cycles_saved fp then
    QCheck.Test.fail_reportf "%s: saved %d cycles but accounted %d" what
      (cycles p_ref - cycles p) (cycles_saved fp);
  fp

let test_full_vcache_still_sound () =
  (* a full vcache flushes pid 1's table, fillers and all, but must keep
     verdicts, output and accounting intact *)
  let img =
    install ~program:"thrash"
      {|
int main() {
  int k;
  for (k = 0; k < 6; k = k + 1) { access("/etc/q", 4); access("/etc/r", 4); write(1, "x", 1); }
  return 0;
}
|}
  in
  let fp = agrees_with_reference ~what:"full vcache" Full_vcache img in
  Alcotest.(check bool) "the flush evicts" true (Vcache.evictions fp.vcache > 0)

(* ---- differential: reference vs fast on the paper's workloads ---- *)

(* The programs of Tables 1-3 and 5 on which the fast path does work:
   each repeats calls from the same sites. The CPU-bound Table 5 programs
   and gcc make too few repeated calls for any layer to hit. *)
let workloads =
  List.filter
    (fun (w : Workloads.Registry.t) ->
      List.mem w.Workloads.Registry.name [ "vortex"; "pyramid"; "gzip" ])
    (Workloads.Registry.table5 ~scale:1)
  @ Workloads.Registry.policy_programs

let test_workload (w : Workloads.Registry.t) () =
  let name = w.Workloads.Registry.name in
  let image =
    match
      Asc_core.Installer.install ~key ~personality ~program:name
        (Workloads.Registry.compile ~personality w)
    with
    | Ok inst -> inst.Asc_core.Installer.image
    | Error e -> Alcotest.failf "install %s: %s" name e
  in
  let fp =
    agrees_with_reference ~setup:w.Workloads.Registry.setup ~stdin:w.Workloads.Registry.stdin
      ~what:name Fast image
  in
  Alcotest.(check bool) "the fast path did work" true (cycles_saved fp > 0)

(* ---- differential property: reference vs fast on random programs ---- *)

let loop_counter = ref 0

let fresh () =
  incr loop_counter;
  Printf.sprintf "u%d" !loop_counter

(* Small terminating MiniC programs biased toward repeated syscalls (loops
   around call statements) so every layer actually gets traffic. *)
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

let prop_differential =
  QCheck.Test.make ~name:"fast path and reference runs are observably identical" ~count:40
    arbitrary_program (fun src ->
      match Minic.Driver.compile ~personality src with
      | Error e -> QCheck.Test.fail_reportf "generated program does not compile: %s" e
      | Ok img ->
        (match Asc_core.Installer.install ~key ~personality ~program:"ft" img with
         | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
         | Ok inst ->
           let image = inst.Asc_core.Installer.image in
           ignore (agrees_with_reference ~what:"fast path" Fast image);
           ignore (agrees_with_reference ~what:"full vcache" Full_vcache image);
           true))

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

let run_mutated config img =
  let kernel = Kernel.create ~personality () in
  Kernel.set_monitor kernel (Some (Checker.monitor_with ~kernel ~key (arm config kernel)));
  match Kernel.spawn kernel ~program:"mut" img with
  | exception Invalid_argument _ -> None (* image refused before any code ran *)
  | proc ->
    let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
    let steps =
      List.filter_map
        (function
          | Kernel.Violation { violation = v; _ } ->
            Some (Violation.step_name v.Violation.v_step)
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
    (match (run_mutated Reference img, run_mutated Fast img) with
     | None, None -> true
     | Some (Svm.Machine.Cycle_limit, _, _), Some _
     | Some _, Some (Svm.Machine.Cycle_limit, _, _) ->
       true (* a runaway loop hits the budget at different points *)
     | Some a, Some b ->
       if a = b then true
       else QCheck.Test.fail_reportf "mutation verdict diverged from the reference"
     | Some _, None | None, Some _ ->
       QCheck.Test.fail_reportf "image load diverged from the reference")

let prop_mutation_deny_parity =
  QCheck.Test.make ~name:"mutations trip identical verdicts on both paths" ~count:200
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

(* ---- differential property: tampering with guest memory mid-run ---- *)

(* A binary mutation lands before any layer has compiled anything. An
   attacker with a write primitive strikes later, after the fast path has
   warmed up on the untouched bytes. This wrapper writes [byte] just
   before the [k]-th trap reaches the checker, at [off] bytes from the
   address in register [reg] — r9 points at the predecessor set, r10 at
   the policy state, r11 at the call MAC and r1 at the first argument,
   often an authenticated string. Offsets from -20 reach into an
   authenticated string's header (length and tag). *)
let tamper_at ~k ~reg ~off ~byte (inner : Kernel.monitor) =
  let traps = ref 0 in
  { inner with
    Kernel.pre_syscall =
      (fun p ~site ~number ->
        let m = p.Process.machine in
        if !traps = k then ignore (Svm.Machine.write_byte m (m.Svm.Machine.regs.(reg) + off) byte);
        incr traps;
        inner.Kernel.pre_syscall p ~site ~number) }

let run_tampered config (k, reg, off, byte) img =
  let kernel = Kernel.create ~personality () in
  (* the trace shows which call was refused, not only that one was *)
  kernel.Kernel.tracing <- true;
  let fast = arm config kernel in
  let checker = Checker.monitor_with ~kernel ~key fast in
  Kernel.set_monitor kernel (Some (tamper_at ~k ~reg ~off ~byte checker));
  let proc = Kernel.spawn kernel ~program:"tamper" img in
  let stop = Kernel.run kernel proc ~max_cycles:10_000_000 in
  (observed kernel proc stop, fast)

let prop_tamper_parity =
  QCheck.Test.make ~name:"mid-run tampering trips identical verdicts on both paths" ~count:400
    QCheck.(
      quad (int_bound 12) (oneofl [ 1; 9; 9; 9; 10; 11 ]) (int_range (-20) 23) (int_bound 255))
    (fun tamper ->
      let img =
        match Svm.Obj_file.parse (Lazy.force fixed_victim) with
        | Ok img -> img
        | Error e -> failwith e
      in
      match (fst (run_tampered Reference tamper img), fst (run_tampered Fast tamper img)) with
      | (Svm.Machine.Cycle_limit, _, _, _), _ | _, (Svm.Machine.Cycle_limit, _, _, _) ->
        true (* a runaway loop hits the budget at different points *)
      | a, b -> a = b || QCheck.Test.fail_reportf "tampered run diverged from the reference")

(* The property samples tampers at random. These pin one per layer, struck
   at a site the layer has already accepted, so a layer that lets through
   bytes the reference refuses fails on every seed. Each loop makes one
   call per iteration, so trap 5 is the sixth call from the same site. *)
let getpid_loop = "int main() { int k; for (k = 0; k < 8; k = k + 1) { getpid(); } return 0; }"

let access_loop =
  "int main() { int k; for (k = 0; k < 8; k = k + 1) { access(\"/etc/q\", 4); } return 0; }"

let test_warm_tamper ~src ~reg ~off ~byte ~step layer () =
  let img = install ~program:"warm" src in
  let tamper = (5, reg, off, byte) in
  let ((stop, _, _, verdicts) as reference), _ = run_tampered Reference tamper img in
  let fast, fp = run_tampered Fast tamper img in
  (match stop with
   | Svm.Machine.Killed _ -> ()
   | _ -> Alcotest.fail "the reference let the tampered call through");
  Alcotest.(check (list string)) "the reference's verdict" [ "v:" ^ step ] verdicts;
  Alcotest.(check bool) (layer.name ^ " was warm") true (layer.hits (Option.get fp) > 0);
  Alcotest.(check bool) "the fast path denies identically" true (fast = reference)

let layer name = List.find (fun l -> l.name = name) layers

let warm_tamper_cases =
  [ ( "warm precomp: tampered call MAC",
      test_warm_tamper ~src:getpid_loop ~reg:11 ~off:0 ~byte:0x5a ~step:"call_mac"
        (layer "precomp") );
    ( "warm cfpre: tampered predecessor set",
      test_warm_tamper ~src:getpid_loop ~reg:9 ~off:0 ~byte:0x5a ~step:"control_flow"
        (layer "cfpre") );
    ( "warm cfpre: tampered policy state",
      test_warm_tamper ~src:getpid_loop ~reg:10 ~off:0 ~byte:0x5a ~step:"control_flow"
        (layer "cfpre") );
    ( "warm vcache: tampered string argument",
      test_warm_tamper ~src:access_loop ~reg:1 ~off:1 ~byte:(Char.code 'x') ~step:"string_mac"
        (layer "vcache") ) ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_differential; prop_mutation_deny_parity; prop_tamper_parity ]

let () =
  Alcotest.run "fastpath"
    [ ( "unit",
        [ Alcotest.test_case "all three layers or none" `Quick test_subsets_refused ] );
      ( "lifecycle",
        List.map
          (fun l ->
            Alcotest.test_case
              (Printf.sprintf "execve drops the %s's entries" l.name)
              `Quick (test_execve_invalidation l))
          layers
        @ List.map
            (fun l ->
              Alcotest.test_case
                (Printf.sprintf "teardown empties the %s" l.name)
                `Quick (test_teardown_invalidation l))
            layers
        @ [ Alcotest.test_case "hot loop savings accounted" `Quick test_hot_loop_accounting;
            Alcotest.test_case "a full vcache flushes soundly" `Quick
              test_full_vcache_still_sound ] );
      ( "workloads",
        List.map
          (fun (w : Workloads.Registry.t) ->
            Alcotest.test_case
              (w.Workloads.Registry.name ^ " runs as under the reference")
              `Quick (test_workload w))
          workloads );
      ( "differential",
        props
        @ [ Alcotest.test_case "rdcyc mutation (2, 56) exempt" `Quick test_mutation_rdcyc ]
        @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) warm_tamper_cases ) ]
