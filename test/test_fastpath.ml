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

let install ?(program_id = 1) ?(use_extensions = false) ~program src =
  let img = Minic.Driver.compile_exn ~personality src in
  match
    Asc_core.Installer.install ~key ~personality
      ~options:{ Asc_core.Installer.default_options with program_id; use_extensions }
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
   trace entry, and every audit entry. No audit field carries a cycle
   count, so a violation must match the reference's field for field: pid,
   program, step, site, number, sem, reason and both MAC prefixes. *)
let observed kernel (proc : Process.t) stop =
  (stop, Kernel.stdout_of proc, Kernel.trace kernel, Kernel.audit_log kernel)

(* Each audit entry's kind and key, for the cases that name the verdicts
   they expect: the step of a violation, the reason of a deny, the path of
   an execve. *)
let verdict_names =
  List.map (function
    | Kernel.Violation { violation = v; _ } -> "v:" ^ Violation.step_name v.Violation.v_step
    | Kernel.Denied { reason; _ } -> "d:" ^ reason
    | Kernel.Execve { path; _ } -> "e:" ^ path)

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
    Some (observed kernel proc stop)

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
     | Some (Svm.Machine.Cycle_limit, _, _, _), Some _
     | Some _, Some (Svm.Machine.Cycle_limit, _, _, _) ->
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
   warmed up on the untouched bytes. [before_trap ~k f] runs [f] on the
   guest machine just before the [k]-th trap (counting from 0) reaches the
   checker; with [~pid], the [k]-th trap of that process. [tamper_at] writes [byte] there, at [off] bytes from the
   address in register [reg] — r9 points at the predecessor set, r10 at
   the policy state (lastBlock, then lbMAC), r11 at the call MAC and r1 at
   the first argument, often an authenticated string. Offsets from -20
   reach into an authenticated string's header (length and tag). *)
let before_trap ?pid ~k f (inner : Kernel.monitor) =
  let traps = ref 0 in
  { inner with
    Kernel.pre_syscall =
      (fun p ~site ~number ->
        (match pid with
         | Some only when only <> p.Process.pid -> ()
         | _ ->
           if !traps = k then f p.Process.machine;
           incr traps);
        inner.Kernel.pre_syscall p ~site ~number) }

let tamper_at ~k ~reg ~off ~byte =
  before_trap ~k (fun m ->
      ignore (Svm.Machine.write_byte m (m.Svm.Machine.regs.(reg) + off) byte))

(* [wrap] stands between the kernel and the checker *)
let run_wrapped config wrap img =
  let kernel = Kernel.create ~personality () in
  (* the trace shows which call was refused, not only that one was *)
  kernel.Kernel.tracing <- true;
  let fast = arm config kernel in
  Kernel.set_monitor kernel (Some (wrap (Checker.monitor_with ~kernel ~key fast)));
  let proc = Kernel.spawn kernel ~program:"tamper" img in
  let stop = Kernel.run kernel proc ~max_cycles:10_000_000 in
  (observed kernel proc stop, fast)

let run_tampered config (k, reg, off, byte) img =
  run_wrapped config (tamper_at ~k ~reg ~off ~byte) img

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

let test_warm_tamper ?use_extensions ~src ~tamper ~step layer () =
  let img = install ?use_extensions ~program:"warm" src in
  let ((stop, _, _, verdicts) as reference), _ = run_wrapped Reference tamper img in
  let fast, fp = run_wrapped Fast tamper img in
  (match stop with
   | Svm.Machine.Killed _ -> ()
   | _ -> Alcotest.fail "the reference let the tampered call through");
  Alcotest.(check (list string))
    "the reference's verdict" [ "v:" ^ step ] (verdict_names verdicts);
  Alcotest.(check bool) (layer.name ^ " was warm") true (layer.hits (Option.get fp) > 0);
  Alcotest.(check bool) "the fast path denies identically" true (fast = reference)

let layer name = List.find (fun l -> l.name = name) layers

(* the strike lands at trap 5 *)
let strike ~reg ~off ~byte = tamper_at ~k:5 ~reg ~off ~byte

(* Every bit of the byte at [off] from the address in [reg] inverted. *)
let flip_at ~reg ~off =
  before_trap ~k:5 (fun m ->
      let addr = m.Svm.Machine.regs.(reg) + off in
      match Svm.Machine.read_byte m addr with
      | Some b -> ignore (Svm.Machine.write_byte m addr (b lxor 0xff))
      | None -> ())

(* One policy-state byte flipped: offsets 0-7 are lastBlock, 8-23 the
   lbMAC. *)
let flip_policy_state ~off = flip_at ~reg:10 ~off

(* Before trap 5, the 24 policy-state bytes go back to what the kernel
   wrote at trap 3: a state that did verify, under a counter the kernel
   has since moved past. Each byte equals one the fast path once wrote, so
   only the counter, carried in the tag, gives the replay away. *)
let rollback_policy_state inner =
  let saved = ref "" in
  let lbp (m : Svm.Machine.t) = m.Svm.Machine.regs.(10) in
  before_trap ~k:4
    (fun m -> saved := Option.get (Svm.Machine.read_mem m ~addr:(lbp m) ~len:24))
    (before_trap ~k:5 (fun m -> ignore (Svm.Machine.write_mem m ~addr:(lbp m) !saved)) inner)

(* ---- the precomp live probe ---- *)

(* Strikes on each field the probe reads in place of a rebuilt call: at a
   warm site the call MAC no longer verifies, so the reference denies at
   step 1 and a probe that skipped the field would let the call through. *)
let set_reg ~reg f =
  before_trap ~k:5 (fun m -> m.Svm.Machine.regs.(reg) <- f m.Svm.Machine.regs.(reg))

(* the length in the authenticated-string header behind [ptr] *)
let string_length m ~ptr =
  fst (Option.get (Asc_core.Auth_string.read_header (Svm.Machine.read_byte m) ~ptr))

(* An authenticated string copied whole, header and contents, to an
   unused address and [reg] pointed at the copy: every header byte equals
   the memo's, only the pointer differs. *)
let relocate_string ~reg =
  before_trap ~k:5 (fun m ->
      let hdr = Asc_core.Auth_string.header_size in
      let ptr = m.Svm.Machine.regs.(reg) in
      let len = string_length m ~ptr in
      let copy = Option.get (Svm.Machine.read_mem m ~addr:(ptr - hdr) ~len:(hdr + len)) in
      let dst = 0x30_0000 in
      ignore (Svm.Machine.write_mem m ~addr:dst copy);
      m.Svm.Machine.regs.(reg) <- dst + hdr)

let precomp_probe_case ?use_extensions name ~src tamper =
  ( "warm precomp probe: " ^ name,
    test_warm_tamper ?use_extensions ~src ~tamper ~step:"call_mac" (layer "precomp") )

(* one write site whose fd takes two values: an extension block (r14)
   carries the allowed set *)
let two_fd_loop =
  {|
int main() {
  int k;
  int fd;
  for (k = 0; k < 8; k = k + 1) {
    if (k % 2) { fd = 1; } else { fd = 2; }
    write(fd, "x", 1);
  }
  return 0;
}
|}

let precomp_probe_cases =
  [ precomp_probe_case "descriptor bit flipped in r7" ~src:getpid_loop
      (set_reg ~reg:7 (fun d -> d lxor 1));
    precomp_probe_case "block id in r8 changed" ~src:getpid_loop (set_reg ~reg:8 succ);
    precomp_probe_case "policy-state pointer r10 moved" ~src:getpid_loop
      (set_reg ~reg:10 (fun p -> p + 8));
    precomp_probe_case "call-MAC pointer r11 moved" ~src:getpid_loop (set_reg ~reg:11 succ);
    precomp_probe_case "call-MAC byte 15 flipped" ~src:getpid_loop (flip_at ~reg:11 ~off:15);
    precomp_probe_case "constant argument r2 changed" ~src:access_loop (set_reg ~reg:2 succ);
    precomp_probe_case "string pointer r1 moved" ~src:access_loop (set_reg ~reg:1 succ);
    precomp_probe_case "path string relocated" ~src:access_loop (relocate_string ~reg:1) ]
  @ List.init 20 (fun i ->
        precomp_probe_case
          (Printf.sprintf "path header byte %d flipped" i)
          ~src:access_loop
          (flip_at ~reg:1 ~off:(i - Asc_core.Auth_string.header_size)))
  @ [ precomp_probe_case "predecessor-set pointer r9 moved" ~src:getpid_loop
        (set_reg ~reg:9 (fun p -> p + 8));
      precomp_probe_case "predecessor-set header byte 0 flipped" ~src:getpid_loop
        (flip_at ~reg:9 ~off:(-Asc_core.Auth_string.header_size));
      precomp_probe_case "predecessor set relocated" ~src:getpid_loop (relocate_string ~reg:9);
      precomp_probe_case ~use_extensions:true "extension header byte 0 flipped"
        ~src:two_fd_loop
        (flip_at ~reg:14 ~off:(-Asc_core.Auth_string.header_size));
      precomp_probe_case ~use_extensions:true "extension block relocated" ~src:two_fd_loop
        (relocate_string ~reg:14) ]

(* The call the checker rebuilds from the live registers and headers. *)
let live_call (m : Svm.Machine.t) =
  let r i = m.Svm.Machine.regs.(i) in
  let header ptr =
    match Asc_core.Auth_string.read_header (Svm.Machine.read_byte m) ~ptr with
    | Some (len, mac) -> { Asc_core.Encoded.as_addr = ptr; as_len = len; as_mac = mac }
    | None -> Alcotest.failf "no authenticated-string header at 0x%x" ptr
  in
  let d = r 7 in
  let module D = Asc_core.Descriptor in
  { Asc_core.Encoded.e_number = r 0;
    e_site = m.Svm.Machine.pc - Svm.Isa.instr_size;
    e_descriptor = d;
    e_block = r 8;
    e_const_args = List.map (fun i -> (i, r (i + 1))) (D.const_args d);
    e_string_args = List.map (fun i -> (i, header (r (i + 1)))) (D.string_args d);
    e_ext = (if D.has_ext d then Some (header (r 14)) else None);
    e_control = (if D.has_control_flow d then Some (header (r 9), r 10) else None) }

(* Before trap 5 the access site switches to a second valid variant, as
   hot_loop's guest does: the path is authenticated with one more byte,
   the one after it, under a fresh string MAC, and the site's call MAC is
   replaced by the MAC of the call so changed. *)
let switch_variant =
  before_trap ~k:5 (fun m ->
      let hdr = Asc_core.Auth_string.header_size in
      let ptr = m.Svm.Machine.regs.(1) in
      let len = string_length m ~ptr in
      let contents = Option.get (Svm.Machine.read_mem m ~addr:ptr ~len:(len + 1)) in
      let header = Bytes.create hdr in
      Bytes.set_int32_le header 0 (Int32.of_int (len + 1));
      Bytes.blit_string (Asc_core.Auth_string.mac_of key contents) 0 header 4 16;
      ignore (Svm.Machine.write_mem m ~addr:(ptr - hdr) (Bytes.to_string header));
      let mac = Cmac.mac key (Asc_core.Encoded.encode (live_call m)) in
      ignore (Svm.Machine.write_mem m ~addr:m.Svm.Machine.regs.(11) mac))

(* The probe declines the switched call, precomp resumes on it and moves
   its memo, and the probe hits the new memo on the two calls after it:
   of the seven warm access traps, six hit and one resumes. *)
let test_warm_variant_switch () =
  let img = install ~program:"warm" access_loop in
  let ((stop, _, _, verdicts) as reference), _ = run_wrapped Reference switch_variant img in
  let fast, fp = run_wrapped Fast switch_variant img in
  let fp = Option.get fp in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "the reference refused the second valid variant");
  Alcotest.(check (list string)) "no verdict" [] (verdict_names verdicts);
  Alcotest.(check int) "one resume" 1 (Precomp.resumes fp.Checker.precomp);
  Alcotest.(check int) "six hits" 6 (Precomp.hits fp.Checker.precomp);
  Alcotest.(check int) "no fallback" 0 (Precomp.fallbacks fp.Checker.precomp);
  Alcotest.(check bool) "the fast path runs identically" true (fast = reference)

let warm_tamper_cases =
  [ ( "warm precomp: tampered call MAC",
      test_warm_tamper ~src:getpid_loop ~tamper:(strike ~reg:11 ~off:0 ~byte:0x5a)
        ~step:"call_mac" (layer "precomp") );
    ( "warm cfpre: tampered predecessor set",
      test_warm_tamper ~src:getpid_loop ~tamper:(strike ~reg:9 ~off:0 ~byte:0x5a)
        ~step:"control_flow" (layer "cfpre") );
    ( "warm cfpre: tampered policy state",
      test_warm_tamper ~src:getpid_loop ~tamper:(strike ~reg:10 ~off:0 ~byte:0x5a)
        ~step:"control_flow" (layer "cfpre") );
    ( "warm vcache: tampered string argument",
      test_warm_tamper ~src:access_loop ~tamper:(strike ~reg:1 ~off:1 ~byte:(Char.code 'x'))
        ~step:"string_mac" (layer "vcache") ) ]
  @ List.init 24 (fun off ->
        ( Printf.sprintf "warm cfpre: policy-state byte %d flipped" off,
          test_warm_tamper ~src:getpid_loop ~tamper:(flip_policy_state ~off)
            ~step:"control_flow" (layer "cfpre") ))
  @ [ ( "warm cfpre: policy state rolled back two calls",
        test_warm_tamper ~src:getpid_loop ~tamper:rollback_policy_state ~step:"control_flow"
          (layer "cfpre") ) ]
  @ precomp_probe_cases
  @ [ ("warm precomp probe: a second valid variant resumes", test_warm_variant_switch) ]

(* ---- a policy state replayed across processes ---- *)

(* Two processes of one image keep their policy state at the same
   address. A starts one trap ahead, then the two run alternately one
   instruction at a time, so their traps interleave and A's counter stays
   ahead of B's. Just before B's trap 5 reaches the checker, A's current
   24 policy-state bytes overwrite B's: a state the kernel itself wrote,
   for A's counter, not B's. Returns what both runs observably did, and
   whether the replay struck right after one of A's warm getpid traps
   (its second to eighth trap; the first compiles the site, the ninth
   is exit) with the two counters apart. *)
let run_replay config img =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let fast = arm config kernel in
  let checker = Checker.monitor_with ~kernel ~key fast in
  let a = Kernel.spawn kernel ~program:"replayA" img in
  let b = Kernel.spawn kernel ~program:"replayB" img in
  let a_traps = ref 0 and b_traps = ref 0 and last_pid = ref (-1) in
  let struck_after_a = ref false in
  Kernel.set_monitor kernel
    (Some
       { checker with
         Kernel.pre_syscall =
           (fun p ~site ~number ->
             if p.Process.pid = b.Process.pid then begin
               if !b_traps = 5 then begin
                 let lbp = b.Process.machine.Svm.Machine.regs.(10) in
                 let state = Svm.Machine.read_mem a.Process.machine ~addr:lbp ~len:24 in
                 ignore (Svm.Machine.write_mem b.Process.machine ~addr:lbp (Option.get state));
                 struck_after_a :=
                   !last_pid = a.Process.pid
                   && !a_traps >= 2 && !a_traps <= 8
                   && a.Process.counter <> b.Process.counter
               end;
               incr b_traps
             end
             else incr a_traps;
             last_pid := p.Process.pid;
             checker.Kernel.pre_syscall p ~site ~number) });
  (* one instruction: a budget of the cycles already spent stops right
     after the next one retires *)
  let step (proc : Process.t) =
    let m = proc.Process.machine in
    match Kernel.run kernel proc ~max_cycles:m.Svm.Machine.cycles with
    | Svm.Machine.Cycle_limit ->
      m.Svm.Machine.stopped <- None;
      None
    | stop -> Some stop
  in
  let rec head_start () =
    match step a with
    | None when !a_traps < 1 -> head_start ()
    | None -> None
    | stopped -> stopped
  in
  let rec alternate sa sb =
    match (sa, sb) with
    | Some sa, Some sb -> (sa, sb)
    | _ ->
      let sa = if Option.is_none sa then step a else sa in
      let sb = if Option.is_none sb then step b else sb in
      alternate sa sb
  in
  let stop_a, stop_b = alternate (head_start ()) None in
  let _, _, trace, verdicts = observed kernel b stop_b in
  ((stop_a, stop_b, trace, verdicts), !struck_after_a, fast)

let test_cross_process_replay () =
  let img = install ~program:"replay" getpid_loop in
  let ((_, stop_b, _, verdicts) as reference), _, _ = run_replay Reference img in
  let fast, struck_after_a, fp = run_replay Fast img in
  (match stop_b with
   | Svm.Machine.Killed _ -> ()
   | _ -> Alcotest.fail "the reference let the replayed state through");
  Alcotest.(check bool) "the replay followed a warm trap of A, counters apart" true
    struck_after_a;
  Alcotest.(check bool) "cfpre was warm" true (Cfpre.hits (Option.get fp).Checker.cfpre > 0);
  let _, _, _, fast_verdicts = fast in
  Alcotest.(check (list string))
    "reference verdicts" [ "v:control_flow" ] (verdict_names verdicts);
  Alcotest.(check (list string)) "fast verdicts" (verdict_names verdicts)
    (verdict_names fast_verdicts);
  Alcotest.(check bool) "the fast path runs identically" true (fast = reference)

(* ---- the 32-bit number field ---- *)

(* [Encoded.encode] writes the syscall number as a u32, so a covered
   number + 2^32 in r0 at an installed site still verifies. The kernel
   dispatches on the full register value, so such a call must run nothing
   and return -ENOSYS, under the reference and the fast path alike. This
   runs [img] one instruction at a time up to the [k]-th [sys] that would
   issue [number], replaces r0 there with [renumber number], and runs on
   to the end. *)
let run_renumbered config ~number ~k ~renumber img =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let fast = arm config kernel in
  Kernel.set_monitor kernel (Some (Checker.monitor_with ~kernel ~key fast));
  let proc = Kernel.spawn kernel ~program:"high" img in
  let m = proc.Process.machine in
  let rec step seen =
    let at_call =
      Svm.Isa.decode m.Svm.Machine.mem ~pos:m.Svm.Machine.pc = Some Svm.Isa.Sys
      && m.Svm.Machine.regs.(0) = number
    in
    if at_call && seen + 1 = k then m.Svm.Machine.regs.(0) <- renumber number
    else
      match Kernel.run kernel proc ~max_cycles:m.Svm.Machine.cycles with
      | Svm.Machine.Cycle_limit ->
        m.Svm.Machine.stopped <- None;
        step (if at_call then seen + 1 else seen)
      | _ -> Alcotest.failf "the run ended before call %d" k
  in
  step 0;
  let stop = Kernel.run kernel proc ~max_cycles:10_000_000 in
  (observed kernel proc stop, fast)

let test_high_number_enosys () =
  let img =
    install ~program:"high"
      {|
int main() {
  int k;
  for (k = 0; k < 3; k = k + 1) {
    if (write(1, "gap\n", 4) == 4) { write(1, "ok\n", 3); } else { write(1, "no\n", 3); }
  }
  return 0;
}
|}
  in
  let number = Option.get (Personality.number_of personality Syscall.Write) in
  (* the third write repeats the first one's site, so the fast path is warm *)
  let renumber n = n + (1 lsl 32) in
  let ((stop, out, trace, verdicts) as reference), _ =
    run_renumbered Reference ~number ~k:3 ~renumber img
  in
  let fast, fp = run_renumbered Fast ~number ~k:3 ~renumber img in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "the run did not complete");
  Alcotest.(check (list string)) "the call MAC verified" [] (verdict_names verdicts);
  Alcotest.(check string) "the call wrote nothing" "gap\nok\nno\ngap\nok\n" out;
  (match List.filter (fun e -> e.Kernel.t_sem = None) trace with
   | [ e ] ->
     Alcotest.(check int) "the number as issued" (number + (1 lsl 32)) e.Kernel.t_number;
     Alcotest.(check int) "-ENOSYS" (-Errno.code Errno.ENOSYS) e.Kernel.t_result
   | _ -> Alcotest.fail "expected exactly one undispatched call");
  Alcotest.(check bool) "the fast path was warm" true
    (Precomp.hits (Option.get fp).Checker.precomp > 0);
  Alcotest.(check bool) "the fast path runs identically" true (fast = reference)

(* The probe compares the trap's number too: the sixth getpid of a warm
   site issued as getuid no longer matches its call MAC. *)
let test_warm_number_changed () =
  let img = install ~program:"warm" getpid_loop in
  let number = Option.get (Personality.number_of personality Syscall.Getpid) in
  let renumber _ = Option.get (Personality.number_of personality Syscall.Getuid) in
  let ((stop, _, _, verdicts) as reference), _ =
    run_renumbered Reference ~number ~k:6 ~renumber img
  in
  let fast, fp = run_renumbered Fast ~number ~k:6 ~renumber img in
  (match stop with
   | Svm.Machine.Killed _ -> ()
   | _ -> Alcotest.fail "the reference let the renumbered call through");
  Alcotest.(check (list string))
    "the reference's verdict" [ "v:call_mac" ] (verdict_names verdicts);
  Alcotest.(check bool) "precomp was warm" true
    (Precomp.hits (Option.get fp).Checker.precomp > 0);
  Alcotest.(check bool) "the fast path denies identically" true (fast = reference)

(* ---- several processes of one image on one kernel ---- *)

(* Precomp and cfpre share what they verified across the processes of an
   image: a pid's first visit to a site another process verified is
   decided by that fact, without the slow path's MAC work, but charged as
   the slow path. Each property below reruns with two or three processes
   of one image on one kernel, under the reference and the fast path with
   the same schedule, and requires every process to run observably like
   its reference twin, with its savings fully accounted. *)

type schedule =
  | Sequential   (* each process spawned when the one before it exits *)
  | Interleaved  (* all spawned first, then run in turn by cycle slices *)
  | Flushed      (* sequential, with both shared tables flushed by their bound in between *)

let schedule_name = function
  | Sequential -> "sequential"
  | Interleaved -> "interleaved"
  | Flushed -> "flushed"

let slice = 20_000
let budget = 10_000_000

(* What one process observably did, the cycles it was charged, and what
   the layers credited while it ran: the cycles saved, and for precomp
   and cfpre in turn, the first visits a shared fact decided and the
   facts filed. *)
type proc_run = {
  obs : Svm.Machine.stop * string * Kernel.trace_entry list * Kernel.audit_entry list;
  cycles : int;
  saved : int;
  drawn : int * int;
  filed : int * int;
}

let verdicts_of kernel pid =
  List.filter
    (function
      | Kernel.Violation { pid = p; _ }
      | Kernel.Denied { pid = p; _ }
      | Kernel.Execve { pid = p; _ } ->
        p = pid)
    (Kernel.audit_log kernel)

(* Fill both shared tables past their bound with facts verified at sites
   no image uses, under a pid that then exits: the image's own facts are
   flushed with them. *)
let flush_shared (fp : Checker.fastpath) =
  let pid = -1 in
  let d = Asc_core.Descriptor.(with_const_arg empty 0) in
  let contents = Asc_core.Encoded.predset_contents [ 1 ] in
  let pred_ref =
    { Asc_core.Encoded.as_addr = 0; as_len = String.length contents;
      as_mac = Asc_core.Auth_string.mac_of key contents }
  in
  for i = 0 to Asc_core.Pid_table.Shared.bound do
    let site = 0x3f_0000 + (8 * i) in
    let call =
      { Asc_core.Encoded.e_number = 20; e_site = site; e_descriptor = d; e_block = -1;
        e_const_args = [ (0, i) ]; e_string_args = []; e_ext = None; e_control = None }
    in
    let encoded = Asc_core.Encoded.encode call in
    Precomp.compile fp.precomp ~pid ~call ~encoded ~mac:(Cmac.mac key encoded);
    Cfpre.compile fp.cfpre ~pid ~site ~block:(-1) ~pred_ref ~contents
  done;
  Precomp.drop_pid fp.precomp pid;
  Cfpre.drop_pid fp.cfpre pid;
  if Precomp.shared_evictions fp.precomp = 0 || Cfpre.shared_evictions fp.cfpre = 0 then
    QCheck.Test.fail_reportf "the flood did not flush the shared tables"

(* Run [p] up to [cycles] more modeled cycles, within [budget] in all;
   [Some stop] once it has stopped for good. *)
let run_for kernel (p : Process.t) ~cycles =
  let m = p.Process.machine in
  match Kernel.run kernel p ~max_cycles:(min budget (m.Svm.Machine.cycles + cycles)) with
  | Svm.Machine.Cycle_limit when m.Svm.Machine.cycles < budget ->
    m.Svm.Machine.stopped <- None;
    None
  | stop -> Some stop

(* Run [procs] processes of [img] under [config] and [schedule]. [wrap]
   stands between the kernel and the checker; it is given the pid of each
   process, in spawn order. *)
let run_procs ?(wrap = fun _ m -> m) ?(procs = 2) config schedule img =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let fast = arm config kernel in
  let pids = List.init procs (fun i -> kernel.Kernel.next_pid + i) in
  Kernel.set_monitor kernel (Some (wrap pids (Checker.monitor_with ~kernel ~key fast)));
  let totals () =
    match fast with
    | Some fp ->
      [| cycles_saved fp; Precomp.shared_hits fp.precomp; Cfpre.shared_hits fp.cfpre;
         Precomp.shared_size fp.precomp; Cfpre.shared_size fp.cfpre |]
    | None -> Array.make 5 0
  in
  let traces = Array.make procs [] and credit = Array.make_matrix procs 5 0 in
  (* [run_for], crediting process [i] with the slice's trace and the moves
     of the layers' totals *)
  let run_slice i p ~cycles =
    Kernel.clear_trace kernel;
    let t0 = totals () in
    let stop = run_for kernel p ~cycles in
    Array.iteri (fun j t -> credit.(i).(j) <- credit.(i).(j) + t - t0.(j)) (totals ());
    traces.(i) <- traces.(i) @ Kernel.trace kernel;
    stop
  in
  let spawn i = Kernel.spawn kernel ~program:(Printf.sprintf "proc%d" i) img in
  let finish i (p : Process.t) stop =
    let c = credit.(i) in
    { obs = (stop, Kernel.stdout_of p, traces.(i), verdicts_of kernel p.Process.pid);
      cycles = cycles p;
      saved = c.(0);
      drawn = (c.(1), c.(2));
      filed = (c.(3), c.(4)) }
  in
  let runs =
    match schedule with
    | Sequential | Flushed ->
      List.init procs (fun i ->
          if i = 1 && schedule = Flushed then Option.iter flush_shared fast;
          let p = spawn i in
          let stop = Option.get (run_slice i p ~cycles:budget) in
          finish i p stop)
    | Interleaved ->
      let ps = Array.init procs spawn in
      let stops = Array.make procs None in
      while Array.exists Option.is_none stops do
        Array.iteri
          (fun i p -> if Option.is_none stops.(i) then stops.(i) <- run_slice i p ~cycles:slice)
          ps
      done;
      List.init procs (fun i -> finish i ps.(i) (Option.get stops.(i)))
  in
  (runs, fast)

let runaway (r : proc_run) =
  match r.obs with
  | Svm.Machine.Cycle_limit, _, _, _ -> true
  | _ -> false

(* Every process of a fast-path run agrees with its reference twin:
   stop, output, trace and verdicts, no more cycles, and savings equal to
   what the layers credited while it ran. A runaway process hits the
   budget at different points on the two paths and is exempt. *)
let procs_agree ?wrap ?procs ~what ~benign schedule img =
  let reference, _ = run_procs ?wrap ?procs Reference schedule img in
  let fast, _ = run_procs ?wrap ?procs Fast schedule img in
  List.iteri
    (fun i (r, f) ->
      let what = Printf.sprintf "%s, %s, process %d" what (schedule_name schedule) i in
      if not (runaway r || runaway f) then begin
        if r.obs <> f.obs then QCheck.Test.fail_reportf "%s: diverged from the reference" what;
        (match r.obs with
         | Svm.Machine.Killed k, _, _, _ when benign ->
           QCheck.Test.fail_reportf "%s: false alarm: %s" what k
         | _ -> ());
        if r.cycles - f.cycles <> f.saved then
          QCheck.Test.fail_reportf "%s: saved %d cycles but accounted %d" what
            (r.cycles - f.cycles) f.saved
      end)
    (List.combine reference fast)

let schedules = [ Sequential; Interleaved; Flushed ]

let prop_multi_differential =
  QCheck.Test.make ~name:"processes sharing facts run like the reference" ~count:15
    QCheck.(pair arbitrary_program (int_range 2 3))
    (fun (src, procs) ->
      match Minic.Driver.compile ~personality src with
      | Error e -> QCheck.Test.fail_reportf "generated program does not compile: %s" e
      | Ok img ->
        (match Asc_core.Installer.install ~key ~personality ~program:"ft" img with
         | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
         | Ok inst ->
           List.iter
             (fun sch ->
               procs_agree ~procs ~what:"random program" ~benign:true sch
                 inst.Asc_core.Installer.image)
             schedules;
           true))

let prop_multi_mutation =
  QCheck.Test.make ~name:"mutants sharing facts trip the reference's verdicts" ~count:60
    QCheck.(pair small_nat (int_bound 255))
    (fun case ->
      match mutant case with
      | Error _ -> true
      | Ok img when reads_cycle_counter img -> true
      | Ok img ->
        (match Kernel.spawn (Kernel.create ~personality ()) ~program:"probe" img with
         | exception Invalid_argument _ -> true (* refused before any code ran *)
         | _ ->
           List.iter
             (fun sch -> procs_agree ~what:"mutant" ~benign:false sch img)
             schedules;
           true))

(* The strike lands in the last process, so in a sequential schedule at a
   site every earlier process has already verified. *)
let strike_last ~k ~reg ~off ~byte pids inner =
  before_trap ~pid:(List.nth pids (List.length pids - 1)) ~k
    (fun m -> ignore (Svm.Machine.write_byte m (m.Svm.Machine.regs.(reg) + off) byte))
    inner

let victim_image () =
  match Svm.Obj_file.parse (Lazy.force fixed_victim) with
  | Ok img -> img
  | Error e -> failwith e

let prop_multi_tamper =
  QCheck.Test.make ~name:"tampering a later process trips the reference's verdicts" ~count:80
    QCheck.(
      set_print Print.(quad int int int int)
        (quad (int_bound 12) (oneofl [ 1; 9; 9; 9; 10; 11 ]) (int_range (-20) 23) (int_bound 255)))
    (fun (k, reg, off, byte) ->
      List.iter
        (fun sch ->
          procs_agree ~wrap:(strike_last ~k ~reg ~off ~byte) ~what:"tamper" ~benign:false sch
            (victim_image ()))
        schedules;
      true)

(* The fixed cases: B's first trap at a site only A has verified, struck
   in each structure a shared fact stands for. [strike m n] edits B's
   machine before its first trap that issues [sem] and returns the number
   the checker is handed for it. The reference denies at the named step;
   the fast path must deny identically, and A must have left the facts
   B's first visit was tried against. *)
let test_first_visit_tamper ~src ~sem ~strike ~step () =
  let img = install ~program:"shared" src in
  let number = Option.get (Personality.number_of personality sem) in
  let wrap pids (inner : Kernel.monitor) =
    let struck = ref false in
    { inner with
      Kernel.pre_syscall =
        (fun p ~site ~number:n ->
          if p.Process.pid = List.nth pids 1 && n = number && not !struck then begin
            struck := true;
            inner.Kernel.pre_syscall p ~site ~number:(strike p.Process.machine n)
          end
          else inner.Kernel.pre_syscall p ~site ~number:n) }
  in
  let reference, _ = run_procs ~wrap Reference Sequential img in
  let fast, fp = run_procs ~wrap Fast Sequential img in
  let fp = Option.get fp in
  Alcotest.(check bool) "A left shared facts" true
    (Precomp.shared_size fp.Checker.precomp > 0 && Cfpre.shared_size fp.Checker.cfpre > 0);
  (match reference with
   | [ a; b ] ->
     (match a.obs with
      | Svm.Machine.Halted 0, _, _, [] -> ()
      | _ -> Alcotest.fail "process A did not run cleanly");
     let _, _, _, verdicts = b.obs in
     Alcotest.(check (list string)) "the reference's verdict" [ "v:" ^ step ]
       (verdict_names verdicts)
   | _ -> Alcotest.fail "two processes expected");
  List.iter2
    (fun r f ->
      Alcotest.(check bool) "the fast path runs identically" true (r.obs = f.obs);
      Alcotest.(check int) "savings accounted" (r.cycles - f.cycles) f.saved)
    reference fast

(* every bit of the byte at [off] from the address in [reg] inverted *)
let flip_byte ~reg ~off m n =
  let addr = m.Svm.Machine.regs.(reg) + off in
  (match Svm.Machine.read_byte m addr with
   | Some b -> ignore (Svm.Machine.write_byte m addr (b lxor 0xff))
   | None -> ());
  n

let first_visit_cases =
  List.map
    (fun (what, src, sem, strike, step) ->
      ( "first visit in B, shared by A: " ^ what,
        test_first_visit_tamper ~src ~sem ~strike ~step ))
    [ ("call-MAC byte flipped", getpid_loop, Syscall.Getpid, flip_byte ~reg:11 ~off:0, "call_mac");
      ( "number changed at the trap",
        getpid_loop,
        Syscall.Getpid,
        (fun _ _ -> Option.get (Personality.number_of personality Syscall.Getuid)),
        "call_mac" );
      ( "predecessor-set byte flipped",
        getpid_loop,
        Syscall.Getpid,
        flip_byte ~reg:9 ~off:0,
        "control_flow" );
      ("lbMAC byte flipped", getpid_loop, Syscall.Getpid, flip_byte ~reg:10 ~off:8, "control_flow");
      ( "lastBlock byte flipped",
        getpid_loop,
        Syscall.Getpid,
        flip_byte ~reg:10 ~off:0,
        "control_flow" );
      ("path string byte flipped", access_loop, Syscall.Access, flip_byte ~reg:1 ~off:1, "string_mac")
    ]

(* ---- what the monitor allocates on a trap ---- *)

(* The minor words the fast-path monitor allocates on each trap of
   [procs] processes of [img] run one after another, in trap order, with
   [strike] applied to the machine before the trap it names (process
   index, trap index within it). *)
let monitor_words ?(strike = fun _ _ _ -> ()) ~procs img =
  let kernel = Kernel.create ~personality () in
  let mon = Checker.monitor_with ~kernel ~key (Some (Checker.fastpath ~key kernel)) in
  let words = ref [] and proc = ref 0 and trap = ref 0 in
  Kernel.set_monitor kernel
    (Some
       { mon with
         Kernel.pre_syscall =
           (fun p ~site ~number ->
             strike !proc !trap p.Process.machine;
             let w0 = Asc_obs.Profile.minor_words () in
             let v = mon.Kernel.pre_syscall p ~site ~number in
             let w = Asc_obs.Profile.minor_words () - w0 in
             words := (!proc, !trap, w) :: !words;
             incr trap;
             v) });
  for i = 0 to procs - 1 do
    proc := i;
    trap := 0;
    let p = Kernel.spawn kernel ~program:(Printf.sprintf "proc%d" i) img in
    ignore (Kernel.run kernel p ~max_cycles:budget)
  done;
  List.rev !words

let words_at words ~proc ~trap =
  match List.find_opt (fun (p, t, _) -> p = proc && t = trap) words with
  | Some (_, _, w) -> w
  | None -> Alcotest.failf "no trap %d in process %d" trap proc

(* B's first trap is a first visit to a site A verified, decided from
   the shared facts: the pid's first entries in the three layers and its
   first telemetry record. Each pid table starts small and the ledger
   grows from nothing, so it stays within 120 words (83 measured; with
   16-bucket pid hashtables and whole telemetry shards made at spawn, it
   took 210). *)
let test_first_visit_words () =
  let img = install ~program:"shared" getpid_loop in
  let words = monitor_words ~procs:2 img in
  let w = words_at words ~proc:1 ~trap:0 in
  if w > 120 then Alcotest.failf "B's first visit allocated %d monitor words (budget 120)" w

(* A call-MAC deny at a warm site: the MAC byte flipped on the fourth
   trap. The deny rebuilds the call and runs the reference CMAC; its
   reason and MAC prefixes are concatenated, not formatted, so the whole
   trap stays within 400 words (335 measured; formatting them took
   1,260). *)
let test_deny_words () =
  let img = install ~program:"deny" getpid_loop in
  let strike proc trap m =
    if proc = 0 && trap = 3 then begin
      let addr = m.Svm.Machine.regs.(11) in
      match Svm.Machine.read_byte m addr with
      | Some b -> ignore (Svm.Machine.write_byte m addr (b lxor 0xff))
      | None -> ()
    end
  in
  let words = monitor_words ~strike ~procs:1 img in
  Alcotest.(check int) "the struck trap is the last" 4 (List.length words);
  let w = words_at words ~proc:0 ~trap:3 in
  if w > 400 then Alcotest.failf "a call-MAC deny allocated %d monitor words (budget 400)" w

(* ---- only a verified call enters a shared table ---- *)

(* Three processes of [getpid_loop] in turn under the fast path. The
   first trap of process [victim], A or B (brk(0), from the C runtime), is
   struck and denied at [step]; [layer] picks precomp's or cfpre's side
   of each process's credit. The denied trap draws on no fact and files
   none. So after a denied A, B finds none of A's facts and files its
   own, and the last process, C, draws on every fact the clean one before
   it filed. *)
let test_denied_files_nothing ~victim ~strike ~step ~layer () =
  let img = install ~program:"facts" getpid_loop in
  let wrap pids = before_trap ~pid:(List.nth pids victim) ~k:0 strike in
  let runs, _ = run_procs ~wrap ~procs:3 Fast Sequential img in
  let n = layer (List.nth runs (1 - victim)).filed in
  Alcotest.(check bool) "the clean process filed facts" true (n > 0);
  List.iteri
    (fun i r ->
      let _, _, _, verdicts = r.obs in
      let expect =
        if i = victim then ([ "v:" ^ step ], (0, 0))
        else if i < 2 then ([], (0, n))
        else ([], (n, 0))
      in
      Alcotest.(check (pair (list string) (pair int int)))
        (Printf.sprintf "process %d: verdicts, facts drawn and filed" i)
        expect
        (verdict_names verdicts, (layer r.drawn, layer r.filed)))
    runs

let denied_first_visit_cases =
  let flip ~reg ~off m = ignore (flip_byte ~reg ~off m 0) in
  List.map
    (fun (what, victim, strike, step, layer) ->
      (what, test_denied_files_nothing ~victim ~strike ~step ~layer))
    [ ("a flipped call-MAC byte in A files no fact", 0, flip ~reg:11 ~off:0, "call_mac", fst);
      ( "a call changed under A's tag in B draws on no fact",
        1,
        (fun m -> m.Svm.Machine.regs.(1) <- 4096),
        "call_mac",
        fst );
      ( "a flipped predecessor-set byte in A files no fact",
        0,
        flip ~reg:9 ~off:0,
        "control_flow",
        snd );
      ( "a flipped predecessor-set byte in B draws on no fact",
        1,
        flip ~reg:9 ~off:0,
        "control_flow",
        snd ) ]

(* ---- pid locality: a process's modeled time is its own ---- *)

(* Guests read modeled time ([rdcyc], [gettimeofday] and [time] all derive
   from [m.cycles]), so a process must be charged the same at every trap
   whether or not another process of its image has warmed the shared
   facts. B runs alone on a fresh kernel, after A, and interleaved with A
   after A has trapped at every site. Its cycles at entry to and exit from
   every trap, each call's telemetry reason and cycles, its output and its
   layer count deltas must be the same in all three. *)
let locality_src =
  {|
int main() {
  int k;
  char tv[16];
  for (k = 0; k < 4; k = k + 1) {
    getpid();
    access("/etc/q", 4);
    gettimeofday(tv, 0);
    print_int(time(0) + k);
    write(1, "\n", 1);
  }
  return 0;
}
|}

let layer_counts (fp : Checker.fastpath) =
  [ Vcache.hits fp.vcache; Vcache.misses fp.vcache; Vcache.evictions fp.vcache;
    Precomp.hits fp.precomp; Precomp.resumes fp.precomp; Precomp.misses fp.precomp;
    Precomp.fallbacks fp.precomp; Precomp.compiles fp.precomp; Precomp.cycles_saved fp.precomp;
    Cfpre.hits fp.cfpre; Cfpre.misses fp.cfpre; Cfpre.fallbacks fp.cfpre;
    Cfpre.compiles fp.cfpre; Cfpre.cycles_saved fp.cfpre; Vcache.cycles_saved fp.vcache ]

let shared_hits (fp : Checker.fastpath) =
  Precomp.shared_hits fp.precomp + Cfpre.shared_hits fp.cfpre

type locality = {
  traps : (int * int * string * int * int) list;  (* cycles in, out; reason, cycles, ts *)
  counts : int list;
  out : string;
  final : int;
  b_shared : int;  (* shared resolutions during B's slices *)
}

let run_locality img ~with_a =
  let kernel = Kernel.create ~personality () in
  let fp = Checker.fastpath ~key kernel in
  let checker = Checker.monitor_with ~kernel ~key (Some fp) in
  let tel = Kernel.telemetry kernel in
  let a_traps = ref 0 and b_pid = ref (-1) and traps = ref [] in
  Kernel.set_monitor kernel
    (Some
       { checker with
         Kernel.pre_syscall =
           (fun p ~site ~number ->
             let m = p.Process.machine in
             let c0 = m.Svm.Machine.cycles in
             let v = checker.Kernel.pre_syscall p ~site ~number in
             if p.Process.pid = !b_pid then begin
               let le = List.hd (List.rev (Asc_obs.Telemetry.ledger tel ~pid:p.Process.pid)) in
               traps :=
                 ( c0,
                   m.Svm.Machine.cycles,
                   Asc_obs.Telemetry.reason_label le.Asc_obs.Telemetry.le_reason,
                   le.Asc_obs.Telemetry.le_cycles,
                   le.Asc_obs.Telemetry.le_ts )
                 :: !traps
             end
             else incr a_traps;
             v) });
  let counts = ref (List.map (fun _ -> 0) (layer_counts fp)) and b_shared = ref 0 in
  (* a slice of B, crediting it the count deltas; [true] once B is done *)
  let run_b b ~cycles =
    let c0 = layer_counts fp and s0 = shared_hits fp in
    let stop = run_for kernel b ~cycles in
    counts := List.map2 ( + ) !counts (List.map2 ( - ) (layer_counts fp) c0);
    b_shared := !b_shared + (shared_hits fp - s0);
    match stop with
    | None -> false
    | Some (Svm.Machine.Halted 0) -> true
    | Some _ -> Alcotest.fail "B did not run cleanly"
  in
  let step p ~cycles = Option.is_some (run_for kernel p ~cycles) in
  let b =
    match with_a with
    | `Alone ->
      let b = Kernel.spawn kernel ~program:"B" img in
      b_pid := b.Process.pid;
      while not (run_b b ~cycles:budget) do () done;
      b
    | `After ->
      let a = Kernel.spawn kernel ~program:"A" img in
      while not (step a ~cycles:budget) do () done;
      let b = Kernel.spawn kernel ~program:"B" img in
      b_pid := b.Process.pid;
      while not (run_b b ~cycles:budget) do () done;
      b
    | `Interleaved ->
      let a = Kernel.spawn kernel ~program:"A" img in
      let b = Kernel.spawn kernel ~program:"B" img in
      b_pid := b.Process.pid;
      (* A runs ahead, past its first loop iteration, before they alternate *)
      let a_done = ref false in
      while (not !a_done) && !a_traps < 8 do a_done := step a ~cycles:1_000 done;
      let b_done = ref false in
      while not (!a_done && !b_done) do
        if not !a_done then a_done := step a ~cycles:3_000;
        if not !b_done then b_done := run_b b ~cycles:3_000
      done;
      b
  in
  { traps = List.rev !traps; counts = !counts; out = Kernel.stdout_of b; final = cycles b;
    b_shared = !b_shared }

let test_pid_locality () =
  let img = install ~program:"local" locality_src in
  let alone = run_locality img ~with_a:`Alone in
  Alcotest.(check int) "alone, B resolves nothing from shared facts" 0 alone.b_shared;
  List.iter
    (fun (name, with_a) ->
      let r = run_locality img ~with_a in
      Alcotest.(check bool) (name ^ ": shared facts decided B's first visits") true
        (r.b_shared > 0);
      Alcotest.(check int) (name ^ ": trap count") (List.length alone.traps)
        (List.length r.traps);
      List.iteri
        (fun i ((c0, c1, reason, cyc, ts), (c0', c1', reason', cyc', ts')) ->
          let at what = Printf.sprintf "%s: trap %d: %s" name i what in
          Alcotest.(check int) (at "cycles at entry") c0 c0';
          Alcotest.(check int) (at "cycles at exit") c1 c1';
          Alcotest.(check string) (at "reason") reason reason';
          Alcotest.(check int) (at "verification cycles") cyc cyc';
          Alcotest.(check int) (at "timestamp") ts ts')
        (List.combine alone.traps r.traps);
      Alcotest.(check (list int)) (name ^ ": layer count deltas") alone.counts r.counts;
      Alcotest.(check string) (name ^ ": output") alone.out r.out;
      Alcotest.(check int) (name ^ ": final cycles") alone.final r.final)
    [ ("after A", `After); ("interleaved with A", `Interleaved) ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_differential; prop_mutation_deny_parity; prop_tamper_parity ]

let multi_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_multi_differential; prop_multi_mutation; prop_multi_tamper ]

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
        @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) warm_tamper_cases
        @ [ Alcotest.test_case "policy state replayed from another process" `Quick
              test_cross_process_replay;
            Alcotest.test_case "covered number + 2^32 returns -ENOSYS" `Quick
              test_high_number_enosys;
            Alcotest.test_case "warm precomp probe: number changed at the trap" `Quick
              test_warm_number_changed ] );
      ( "shared",
        multi_props
        @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) first_visit_cases
        @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) denied_first_visit_cases
        @ [ Alcotest.test_case "a process's modeled time is its own" `Quick test_pid_locality;
            Alcotest.test_case "a first visit from shared facts stays within its words" `Quick
              test_first_visit_words;
            Alcotest.test_case "a call-MAC deny stays within its words" `Quick test_deny_words
          ] ) ]
