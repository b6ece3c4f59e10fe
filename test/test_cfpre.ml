(* The precompiled control-flow table (Asc_core.Cfpre).

   Like the vcache and the precompiled-site table, the bitset table is a
   pure accelerator: its fast path may only decide a predecessor check
   whose live reference AND live guest bytes equal the slow-path-verified
   ones, never change a verdict. The unit tests pin the verdict lattice
   (miss / hit / ref fallback / contents fallback), the base-offset bitset
   against globally-unique block ids (program id in the high bits), the
   span bound, the single-block CMAC chain step against the one-shot MAC,
   and the per-pid lifecycle. The differential properties run randomly
   generated programs — and random byte mutations of an installed binary —
   on a cfpre-on and a cfpre-off kernel and require identical observable
   behavior, with the saved cycles exactly accounted. *)

open Oskernel
module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Cfpre = Asc_core.Cfpre
module Machine = Svm.Machine

let key = Cmac.of_raw "cfpre-test-key!!"
let personality = Personality.linux

(* ---- unit tests on the table proper ---- *)

let create ?max_sites ?block_limit () =
  Cfpre.create ?max_sites ?block_limit ~registry:(Asc_obs.Metrics.create ()) ()

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
  | Cfpre.Miss -> "Miss"
  | Cfpre.Hit _ -> "Hit"
  | Cfpre.Fallback Cfpre.Ref_mismatch -> "Fallback(ref)"
  | Cfpre.Fallback Cfpre.Contents_mismatch -> "Fallback(contents)"

let check_is what expected t ~m ~pid ~site ~pred_ref =
  let got = verdict_name (Cfpre.check t ~m ~pid ~site ~pred_ref) in
  Alcotest.(check string) what expected got

let test_compile_and_hit () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3; 7; 9 ] in
  check_is "cold table misses" "Miss" t ~m ~pid:1 ~site:0x40 ~pred_ref:r;
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "one entry" 1 (Cfpre.size t);
  (match Cfpre.check t ~m ~pid:1 ~site:0x40 ~pred_ref:r with
   | Cfpre.Hit { entry; _ } ->
     (* the bitset decides exactly what predset_mem decides *)
     for b = 0 to 16 do
       Alcotest.(check bool)
         (Printf.sprintf "member %d" b)
         (Encoded.predset_mem contents b) (Cfpre.member entry b)
     done
   | v -> Alcotest.failf "expected Hit, got %s" (verdict_name v));
  Alcotest.(check int) "hit counted" 1 (Cfpre.hits t);
  check_is "other site misses" "Miss" t ~m ~pid:1 ~site:0x44 ~pred_ref:r;
  check_is "other pid misses" "Miss" t ~m ~pid:2 ~site:0x40 ~pred_ref:r

let test_globally_unique_ids () =
  (* block ids carry the program id in the high bits (program_id lsl 20 lor
     local), so the absolute values dwarf any sane dense bound; the bitset
     is offset from the set's smallest id and only the span matters *)
  let pid_bits = 7 lsl 20 in
  let ids = [ pid_bits lor 2; pid_bits lor 5; pid_bits lor 40 ] in
  let t = create ~block_limit:64 () in
  let m, r, contents = machine_with_set ~addr:0x100 ids in
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "wide ids still compile" 1 (Cfpre.size t);
  (match Cfpre.check t ~m ~pid:1 ~site:0x40 ~pred_ref:r with
   | Cfpre.Hit { entry; _ } ->
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
  let t = create ~block_limit:64 () in
  (* span 65 (> 64) must decline; the site simply stays on the slow path *)
  let _, r, contents = machine_with_set ~addr:0x100 [ 100; 164 ] in
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "over-span set not compiled" 0 (Cfpre.size t);
  (* span exactly 64 is fine *)
  let _, r2, c2 = machine_with_set ~addr:0x200 [ 100; 163 ] in
  Cfpre.compile t ~pid:1 ~site:0x44 ~pred_ref:r2 ~contents:c2;
  Alcotest.(check int) "at-span set compiled" 1 (Cfpre.size t);
  (* malformed contents (not a multiple of 8, or empty) decline too *)
  Cfpre.compile t ~pid:1 ~site:0x48 ~pred_ref:r ~contents:"short";
  Cfpre.compile t ~pid:1 ~site:0x4c ~pred_ref:r ~contents:"";
  Alcotest.(check int) "malformed sets not compiled" 1 (Cfpre.size t)

let test_fallbacks () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3; 7 ] in
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  (* a moved/forged reference: same site, different (addr, len, mac) *)
  check_is "forged mac falls back" "Fallback(ref)" t ~m ~pid:1 ~site:0x40
    ~pred_ref:{ r with Encoded.as_mac = String.make 16 'f' };
  check_is "moved addr falls back" "Fallback(ref)" t ~m ~pid:1 ~site:0x40
    ~pred_ref:{ r with Encoded.as_addr = 0x104 };
  (* the reference matches but the guest bytes moved out from under it *)
  assert (Machine.write_byte m (0x100 + 3) 0xff);
  check_is "mutated guest bytes fall back" "Fallback(contents)" t ~m ~pid:1 ~site:0x40
    ~pred_ref:r;
  Alcotest.(check int) "fallbacks counted" 3 (Cfpre.fallbacks t);
  Alcotest.(check int) "no false hits" 0 (Cfpre.hits t)

let test_pid_lifecycle () =
  let t = create () in
  let m, r, contents = machine_with_set ~addr:0x100 [ 3 ] in
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Cfpre.compile t ~pid:2 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "two entries" 2 (Cfpre.size t);
  Cfpre.prepare_pid t 1;
  check_is "exec emptied pid 1" "Miss" t ~m ~pid:1 ~site:0x40 ~pred_ref:r;
  check_is "pid 2 stays warm" "Hit" t ~m ~pid:2 ~site:0x40 ~pred_ref:r;
  Cfpre.invalidate_pid t 2;
  Alcotest.(check int) "both invalidations counted" 2 (Cfpre.invalidations t);
  Alcotest.(check int) "table empty" 0 (Cfpre.size t)

let test_max_sites_bound () =
  let t = create ~max_sites:1 () in
  let _, r, contents = machine_with_set ~addr:0x100 [ 3 ] in
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Cfpre.compile t ~pid:1 ~site:0x44 ~pred_ref:r ~contents;
  Alcotest.(check int) "bound holds" 1 (Cfpre.size t);
  Alcotest.(check int) "one compile" 1 (Cfpre.compiles t);
  Alcotest.check_raises "max_sites 0 refused"
    (Invalid_argument "Cfpre.create: max_sites must be >= 1") (fun () ->
      ignore (create ~max_sites:0 ()));
  Alcotest.check_raises "block_limit 0 refused"
    (Invalid_argument "Cfpre.create: block_limit must be >= 1") (fun () ->
      ignore (create ~block_limit:0 ()))

(* ---- the amortized chain step vs the one-shot MAC ---- *)

let test_chain_step_equals_one_shot () =
  (* the fast path's single-block CMAC over the serialized policy state
     must equal the slow path's Cmac.mac of Encoded.state_bytes — the tag
     written back to guest memory is bit-identical on both paths *)
  let t = create () in
  let _, r, contents = machine_with_set ~addr:0x100 [ 3 ] in
  Cfpre.compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  let m2, _, _ = machine_with_set ~addr:0x100 [ 3 ] in
  match Cfpre.check t ~m:m2 ~pid:1 ~site:0x40 ~pred_ref:r with
  | Cfpre.Hit { scratch = sc; _ } ->
    List.iter
      (fun (counter, last_block) ->
        Cfpre.state_into sc ~counter ~last_block;
        Alcotest.(check string)
          (Printf.sprintf "state (%d, %d)" counter last_block)
          (Encoded.state_bytes ~counter ~last_block)
          (Bytes.to_string sc.Cfpre.ps_state);
        Cmac.mac_block_into key sc.Cfpre.ps_state ~dst:sc.Cfpre.ps_tag;
        Alcotest.(check string)
          (Printf.sprintf "tag (%d, %d)" counter last_block)
          (Cmac.mac key (Encoded.state_bytes ~counter ~last_block))
          (Bytes.to_string sc.Cfpre.ps_tag))
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

let run_image ?(use_cfpre = false) ?(setup = fun _ -> ()) image =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  let cfpre =
    if use_cfpre then Some (Cfpre.create ~registry:(Kernel.metrics kernel) ()) else None
  in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ?cfpre ()));
  setup kernel;
  let proc = Kernel.spawn kernel ~program:"ct" image in
  let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
  (kernel, proc, stop, cfpre)

let test_execve_invalidation () =
  (* A warms its bitset table, then execs B: A's entries were compiled
     against an image that is gone, so the exec must rebuild the pid's
     table (and B then compiles its own sites). *)
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
  let _, _, stop, cfpre =
    run_image ~use_cfpre:true
      ~setup:(fun kernel -> Kernel.install_binary kernel ~path:"/bin/progB" b_img)
      a_img
  in
  (match stop with
   | Svm.Machine.Halted 4 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
   | _ -> Alcotest.fail "execve chain did not reach B's exit");
  let cf = Option.get cfpre in
  Alcotest.(check bool) "the loop hit the table" true (Cfpre.hits cf > 0);
  Alcotest.(check bool) "exec dropped the pid's entries" true (Cfpre.invalidations cf > 0)

let test_teardown_invalidation () =
  let img =
    install ~program:"loop"
      "int main() { int k; for (k = 0; k < 8; k = k + 1) { getpid(); } return 0; }"
  in
  let _, _, stop, cfpre = run_image ~use_cfpre:true img in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "run did not halt cleanly");
  let cf = Option.get cfpre in
  Alcotest.(check bool) "the run populated the table" true (Cfpre.hits cf > 0);
  Alcotest.(check int) "teardown left it empty" 0 (Cfpre.size cf)

let test_hot_loop_accounting () =
  (* with no vcache and no precomp in either run, the only divergence is
     the control-flow fast path — so the cycles the cfpre run saves are
     exactly the cycles-saved gauge *)
  let img =
    install ~program:"hot"
      "int main() { int k; for (k = 0; k < 50; k = k + 1) { getpid(); } return 0; }"
  in
  let _, p_off, _, _ = run_image ~use_cfpre:false img in
  let _, p_on, _, cfpre = run_image ~use_cfpre:true img in
  let cf = Option.get cfpre in
  let off = p_off.Process.machine.Svm.Machine.cycles in
  let on = p_on.Process.machine.Svm.Machine.cycles in
  Alcotest.(check bool) "table saves cycles" true (on < off);
  Alcotest.(check int) "savings fully accounted" (off - on) (Cfpre.cycles_saved cf)

(* ---- differential property: cfpre on vs off on random programs ---- *)

let loop_counter = ref 0

let fresh () =
  incr loop_counter;
  Printf.sprintf "p%d" !loop_counter

(* Small terminating MiniC programs biased toward repeated syscalls (loops
   around call statements) so the bitset table actually gets traffic. *)
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
        | Kernel.Violation { violation = v; _ } ->
          Some ("v:" ^ Violation.step_name v.Violation.v_step)
        | Kernel.Denied { reason; _ } -> Some ("d:" ^ reason)
        | Kernel.Execve { path; _ } -> Some ("e:" ^ path)
        | Kernel.Alert _ -> None)
      (Kernel.audit_log kernel)
  in
  (stop, Kernel.stdout_of proc, Kernel.trace kernel, verdicts)

let prop_differential =
  QCheck.Test.make ~name:"cfpre on/off runs are observably identical" ~count:40
    arbitrary_program (fun src ->
      match Minic.Driver.compile ~personality src with
      | Error e -> QCheck.Test.fail_reportf "generated program does not compile: %s" e
      | Ok img ->
        (match Asc_core.Installer.install ~key ~personality ~program:"ct" img with
         | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
         | Ok inst ->
           let image = inst.Asc_core.Installer.image in
           let k_off, p_off, stop_off, _ = run_image ~use_cfpre:false image in
           let k_on, p_on, stop_on, cfpre = run_image ~use_cfpre:true image in
           let obs_off = observed k_off p_off stop_off in
           let obs_on = observed k_on p_on stop_on in
           if obs_off <> obs_on then
             QCheck.Test.fail_reportf "cfpre-on run diverged from cfpre-off";
           (match stop_off with
            | Svm.Machine.Killed r -> QCheck.Test.fail_reportf "false alarm: %s" r
            | _ -> ());
           let cf = Option.get cfpre in
           let off = p_off.Process.machine.Svm.Machine.cycles in
           let on = p_on.Process.machine.Svm.Machine.cycles in
           if on > off then
             QCheck.Test.fail_reportf "cfpre-on run cost more cycles (%d > %d)" on off;
           off - on = Cfpre.cycles_saved cf))

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

let run_mutated ~use_cfpre img =
  let kernel = Kernel.create ~personality () in
  let cfpre =
    if use_cfpre then Some (Cfpre.create ~registry:(Kernel.metrics kernel) ()) else None
  in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ?cfpre ()));
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
    (match (run_mutated ~use_cfpre:false img, run_mutated ~use_cfpre:true img) with
     | None, None -> true
     | Some (Svm.Machine.Cycle_limit, _, _), Some _
     | Some _, Some (Svm.Machine.Cycle_limit, _, _) ->
       true (* a runaway loop hits the budget at different points *)
     | Some a, Some b ->
       if a = b then true
       else QCheck.Test.fail_reportf "mutation verdict diverged cfpre on/off"
     | Some _, None | None, Some _ -> QCheck.Test.fail_reportf "image load diverged cfpre on/off")

let prop_mutation_deny_parity =
  QCheck.Test.make ~name:"mutations trip identical verdicts cfpre on/off" ~count:200
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
  Alcotest.run "cfpre"
    [ ( "unit",
        [ Alcotest.test_case "compile then hit" `Quick test_compile_and_hit;
          Alcotest.test_case "globally-unique ids use the base offset" `Quick
            test_globally_unique_ids;
          Alcotest.test_case "span bound declines compilation" `Quick
            test_span_bound_declines;
          Alcotest.test_case "forged ref / mutated bytes fall back" `Quick test_fallbacks;
          Alcotest.test_case "pid lifecycle" `Quick test_pid_lifecycle;
          Alcotest.test_case "max_sites and block_limit bounds" `Quick test_max_sites_bound ] );
      ( "chain",
        [ Alcotest.test_case "chain step equals one-shot MAC" `Quick
            test_chain_step_equals_one_shot;
          Alcotest.test_case "word accessors round-trip" `Quick
            test_word_accessors_round_trip ] );
      ( "lifecycle",
        [ Alcotest.test_case "execve rebuilds the pid's table" `Quick
            test_execve_invalidation;
          Alcotest.test_case "teardown empties the table" `Quick test_teardown_invalidation;
          Alcotest.test_case "hot loop savings accounted" `Quick test_hot_loop_accounting ] );
      ( "differential",
        props
        @ [ Alcotest.test_case "rdcyc mutation (2, 56) exempt" `Quick test_mutation_rdcyc ] ) ]
