(* The verified-MAC cache (Asc_core.Vcache).

   The cache is a pure accelerator: it may only skip CMAC recomputation for
   byte-identical successful verifications, never change a verdict. The
   differential properties here run randomly generated programs — and random
   byte mutations of an installed binary — on a cache-on and a cache-off
   kernel and require identical observable behavior (exit status, stdout,
   syscall trace, audit verdicts), with the cached run never costing more
   cycles. The unit tests pin the lifecycle: LRU eviction at capacity,
   invalidation on execve and process teardown, and pid isolation. *)

open Oskernel
module Cmac = Asc_crypto.Cmac
module Vcache = Asc_core.Vcache

let key = Cmac.of_raw "vcache-test-key!"
let personality = Personality.linux

(* ---- unit tests on the cache proper ---- *)

let mac_a = String.make 16 'a'
let mac_b = String.make 16 'b'
let ckey ?(pid = 1) site = Vcache.Call { pid; site; encoded = Printf.sprintf "enc%d" site }

let test_lru_eviction () =
  let vc = Vcache.create ~capacity:2 ~registry:(Asc_obs.Metrics.create ()) () in
  Vcache.remember vc (ckey 1) ~mac:mac_a;
  Vcache.remember vc (ckey 2) ~mac:mac_a;
  Alcotest.(check int) "full" 2 (Vcache.size vc);
  (* touch entry 1 so entry 2 becomes least-recently-used *)
  Alcotest.(check bool) "entry 1 hits" true (Vcache.check vc (ckey 1) ~mac:mac_a);
  Vcache.remember vc (ckey 3) ~mac:mac_a;
  Alcotest.(check int) "still bounded" 2 (Vcache.size vc);
  Alcotest.(check int) "one eviction" 1 (Vcache.evictions vc);
  Alcotest.(check bool) "LRU entry 2 evicted" false (Vcache.check vc (ckey 2) ~mac:mac_a);
  Alcotest.(check bool) "entry 1 survives" true (Vcache.check vc (ckey 1) ~mac:mac_a);
  Alcotest.(check bool) "entry 3 present" true (Vcache.check vc (ckey 3) ~mac:mac_a)

let test_key_covers_tag () =
  (* the supplied tag is part of the entry: a tampered MAC misses even when
     the covered bytes match, and tampered bytes miss under the right MAC *)
  let vc = Vcache.create ~capacity:8 ~registry:(Asc_obs.Metrics.create ()) () in
  Vcache.remember vc (ckey 1) ~mac:mac_a;
  Alcotest.(check bool) "same bytes, same tag" true (Vcache.check vc (ckey 1) ~mac:mac_a);
  Alcotest.(check bool) "same bytes, forged tag" false (Vcache.check vc (ckey 1) ~mac:mac_b);
  Alcotest.(check bool) "tampered bytes" false
    (Vcache.check vc (Vcache.Call { pid = 1; site = 1; encoded = "ENC1" }) ~mac:mac_a);
  let s = Vcache.Str { pid = 1; bytes = "/bin/ls" } in
  Vcache.remember vc s ~mac:mac_a;
  Alcotest.(check bool) "string hit" true (Vcache.check vc s ~mac:mac_a);
  Alcotest.(check bool) "tampered string" false
    (Vcache.check vc (Vcache.Str { pid = 1; bytes = "/bin/sh" }) ~mac:mac_a)

let test_pid_isolation () =
  (* invalidating pid 1 must drop exactly its entries: a recycled pid 1
     starts cold while pid 2's warm entries are untouched *)
  let vc = Vcache.create ~capacity:8 ~registry:(Asc_obs.Metrics.create ()) () in
  Vcache.remember vc (ckey ~pid:1 1) ~mac:mac_a;
  Vcache.remember vc (ckey ~pid:1 2) ~mac:mac_a;
  Vcache.remember vc (ckey ~pid:2 1) ~mac:mac_a;
  Vcache.remember vc (Vcache.Str { pid = 1; bytes = "s" }) ~mac:mac_a;
  Vcache.invalidate_pid vc 1;
  Alcotest.(check int) "three entries dropped" 3 (Vcache.invalidations vc);
  Alcotest.(check int) "pid 2's entry remains" 1 (Vcache.size vc);
  Alcotest.(check bool) "pid 1 call cold" false (Vcache.check vc (ckey ~pid:1 1) ~mac:mac_a);
  Alcotest.(check bool) "pid 1 string cold" false
    (Vcache.check vc (Vcache.Str { pid = 1; bytes = "s" }) ~mac:mac_a);
  Alcotest.(check bool) "pid 2 still warm" true (Vcache.check vc (ckey ~pid:2 1) ~mac:mac_a)

let test_capacity_validated () =
  Alcotest.check_raises "capacity 0 refused"
    (Invalid_argument "Vcache.create: capacity must be >= 1") (fun () ->
      ignore (Vcache.create ~capacity:0 ~registry:(Asc_obs.Metrics.create ()) ()))

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

let run_image ?(use_vcache = false) ?(capacity = 1024) ?(setup = fun _ -> ()) image =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let vcache =
    if use_vcache then
      Some (Vcache.create ~capacity ~registry:(Kernel.metrics kernel) ())
    else None
  in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ?vcache ()));
  setup kernel;
  let proc = Kernel.spawn kernel ~program:"vt" image in
  let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
  (kernel, proc, stop, vcache)

let test_execve_invalidation () =
  (* A warms the cache, then execs B: A's entries were verified against an
     image that is gone, so the exec must flush them (and B then warms its
     own). The invalidations counter proves the flush happened. *)
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
  let _, _, stop, vcache =
    run_image ~use_vcache:true
      ~setup:(fun kernel -> Kernel.install_binary kernel ~path:"/bin/progB" b_img)
      a_img
  in
  (match stop with
   | Svm.Machine.Halted 4 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
   | _ -> Alcotest.fail "execve chain did not reach B's exit");
  let vc = Option.get vcache in
  Alcotest.(check bool) "the loop hit the cache" true (Vcache.hits vc > 0);
  Alcotest.(check bool) "exec flushed the pid's entries" true (Vcache.invalidations vc > 0)

let test_teardown_invalidation () =
  (* process exit drops the pid's entries, so a later process that happens
     to get the same pid can never see this image's warm cache *)
  let img =
    install ~program:"loop"
      "int main() { int k; for (k = 0; k < 8; k = k + 1) { getpid(); } return 0; }"
  in
  let _, _, stop, vcache = run_image ~use_vcache:true img in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "run did not halt cleanly");
  let vc = Option.get vcache in
  Alcotest.(check bool) "the run populated the cache" true (Vcache.hits vc > 0);
  Alcotest.(check int) "teardown left it empty" 0 (Vcache.size vc)

let test_tiny_capacity_still_sound () =
  (* a 1-entry cache thrashes (every distinct site evicts the previous one)
     but must stay sound and cheap: same behavior, no extra cycles *)
  let src =
    {|
int main() {
  int k;
  for (k = 0; k < 6; k = k + 1) { getpid(); write(1, "x", 1); }
  return 0;
}
|}
  in
  let img = install ~program:"thrash" src in
  let _, p_off, stop_off, _ = run_image ~use_vcache:false img in
  let _, p_on, stop_on, vcache = run_image ~use_vcache:true ~capacity:1 img in
  (match (stop_off, stop_on) with
   | Svm.Machine.Halted a, Svm.Machine.Halted b -> Alcotest.(check int) "same exit" a b
   | _ -> Alcotest.fail "runs did not halt");
  Alcotest.(check string) "same stdout" (Kernel.stdout_of p_off) (Kernel.stdout_of p_on);
  let vc = Option.get vcache in
  Alcotest.(check bool) "thrashing evicts" true (Vcache.evictions vc > 0);
  Alcotest.(check bool) "never more cycles than cache-off" true
    (p_on.Process.machine.Svm.Machine.cycles <= p_off.Process.machine.Svm.Machine.cycles)

let test_hot_loop_accounting () =
  (* the cycles the cached run saves are exactly the cycles-saved gauge:
     every divergence from the slow path is accounted, nothing else moved *)
  let img =
    install ~program:"hot"
      "int main() { int k; for (k = 0; k < 50; k = k + 1) { getpid(); } return 0; }"
  in
  let _, p_off, _, _ = run_image ~use_vcache:false img in
  let _, p_on, _, vcache = run_image ~use_vcache:true img in
  let vc = Option.get vcache in
  let off = p_off.Process.machine.Svm.Machine.cycles in
  let on = p_on.Process.machine.Svm.Machine.cycles in
  Alcotest.(check bool) "cache saves cycles" true (on < off);
  Alcotest.(check int) "savings fully accounted" (off - on) (Vcache.cycles_saved vc)

(* ---- differential property: cache on vs off on random programs ---- *)

let loop_counter = ref 0

let fresh () =
  incr loop_counter;
  Printf.sprintf "u%d" !loop_counter

(* Small terminating MiniC programs biased toward repeated syscalls (loops
   around call statements) so the cache actually gets traffic. *)
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
   snapshots embed cycle counts, which legitimately differ between cache
   modes). *)
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
  QCheck.Test.make ~name:"cache on/off runs are observably identical" ~count:40
    arbitrary_program (fun src ->
      match Minic.Driver.compile ~personality src with
      | Error e -> QCheck.Test.fail_reportf "generated program does not compile: %s" e
      | Ok img ->
        (match Asc_core.Installer.install ~key ~personality ~program:"vt" img with
         | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
         | Ok inst ->
           let image = inst.Asc_core.Installer.image in
           let k_off, p_off, stop_off, _ = run_image ~use_vcache:false image in
           let k_on, p_on, stop_on, vcache = run_image ~use_vcache:true image in
           let obs_off = observed k_off p_off stop_off in
           let obs_on = observed k_on p_on stop_on in
           if obs_off <> obs_on then
             QCheck.Test.fail_reportf "cache-on run diverged from cache-off";
           (match stop_off with
            | Svm.Machine.Killed r -> QCheck.Test.fail_reportf "false alarm: %s" r
            | _ -> ());
           let vc = Option.get vcache in
           let off = p_off.Process.machine.Svm.Machine.cycles in
           let on = p_on.Process.machine.Svm.Machine.cycles in
           if on > off then
             QCheck.Test.fail_reportf "cache-on run cost more cycles (%d > %d)" on off;
           off - on = Vcache.cycles_saved vc))

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

let run_mutated ~use_vcache img =
  let kernel = Kernel.create ~personality () in
  let vcache =
    if use_vcache then Some (Vcache.create ~registry:(Kernel.metrics kernel) ()) else None
  in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ?vcache ()));
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
    (match (run_mutated ~use_vcache:false img, run_mutated ~use_vcache:true img) with
     | None, None -> true
     | Some (Svm.Machine.Cycle_limit, _, _), Some _
     | Some _, Some (Svm.Machine.Cycle_limit, _, _) ->
       true (* a runaway loop hits the budget at different points *)
     | Some a, Some b ->
       if a = b then true
       else QCheck.Test.fail_reportf "mutation verdict diverged cache on/off"
     | Some _, None | None, Some _ -> QCheck.Test.fail_reportf "image load diverged cache on/off")

let prop_mutation_deny_parity =
  QCheck.Test.make ~name:"mutations trip identical verdicts cache on/off" ~count:200
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
  Alcotest.run "vcache"
    [ ( "unit",
        [ Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "key covers bytes and tag" `Quick test_key_covers_tag;
          Alcotest.test_case "pid isolation on invalidate" `Quick test_pid_isolation;
          Alcotest.test_case "capacity validated" `Quick test_capacity_validated ] );
      ( "lifecycle",
        [ Alcotest.test_case "execve flushes the pid" `Quick test_execve_invalidation;
          Alcotest.test_case "teardown empties the cache" `Quick test_teardown_invalidation;
          Alcotest.test_case "tiny capacity thrashes soundly" `Quick
            test_tiny_capacity_still_sound;
          Alcotest.test_case "hot loop savings accounted" `Quick test_hot_loop_accounting ] );
      ( "differential",
        props
        @ [ Alcotest.test_case "rdcyc mutation (2, 56) exempt" `Quick test_mutation_rdcyc ] ) ]
