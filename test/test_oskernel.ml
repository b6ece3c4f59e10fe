(* Tests for the simulated kernel substrate: VFS semantics (including the
   symlink-normalization machinery of §5.4), OS personalities (including the
   OpenBSD-style __syscall indirection of Table 2), and syscall dispatch via
   real machine programs. *)

open Oskernel

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected errno %s" (Errno.name e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (Errno.name expected)
  | Error e -> Alcotest.(check string) "errno" (Errno.name expected) (Errno.name e)

(* --- VFS --- *)

let fs_with_tree () =
  let fs = Vfs.create () in
  Vfs.mkdir_p fs "/tmp";
  Vfs.mkdir_p fs "/etc";
  Vfs.mkdir_p fs "/home/user/docs";
  ok (Vfs.create_file fs ~cwd:"/" "/etc/passwd" ~contents:"root:0\nuser:1000\n");
  ok (Vfs.create_file fs ~cwd:"/" "/home/user/docs/a.txt" ~contents:"alpha");
  fs

let test_vfs_basic () =
  let fs = fs_with_tree () in
  Alcotest.(check string) "read" "alpha" (ok (Vfs.read_file fs ~cwd:"/" "/home/user/docs/a.txt"));
  Alcotest.(check int) "size" 5 (ok (Vfs.file_size fs ~cwd:"/" "/home/user/docs/a.txt"));
  Alcotest.(check bool) "exists" true (Vfs.exists fs ~cwd:"/" "/etc/passwd");
  Alcotest.(check bool) "is_dir" true (Vfs.is_dir fs ~cwd:"/" "/etc");
  expect_err Errno.ENOENT (Vfs.read_file fs ~cwd:"/" "/etc/shadow");
  expect_err Errno.EISDIR (Vfs.read_file fs ~cwd:"/" "/etc")

let test_vfs_relative_paths () =
  let fs = fs_with_tree () in
  Alcotest.(check string) "relative read" "alpha"
    (ok (Vfs.read_file fs ~cwd:"/home/user" "docs/a.txt"));
  Alcotest.(check string) "dot-dot" "root:0\nuser:1000\n"
    (ok (Vfs.read_file fs ~cwd:"/home/user" "../../etc/passwd"));
  Alcotest.(check string) "normalize dots" "/etc/passwd"
    (ok (Vfs.normalize fs ~cwd:"/home" "./../etc/./passwd"))

let test_vfs_symlinks () =
  let fs = fs_with_tree () in
  ok (Vfs.symlink fs ~cwd:"/" ~target:"/etc/passwd" ~linkpath:"/tmp/link");
  Alcotest.(check string) "follow symlink" "root:0\nuser:1000\n"
    (ok (Vfs.read_file fs ~cwd:"/" "/tmp/link"));
  Alcotest.(check string) "normalize resolves" "/etc/passwd"
    (ok (Vfs.normalize fs ~cwd:"/" "/tmp/link"));
  Alcotest.(check string) "readlink keeps link" "/etc/passwd"
    (ok (Vfs.readlink fs ~cwd:"/" "/tmp/link"));
  (* relative symlink *)
  ok (Vfs.symlink fs ~cwd:"/" ~target:"docs/a.txt" ~linkpath:"/home/user/rel");
  Alcotest.(check string) "relative target" "alpha" (ok (Vfs.read_file fs ~cwd:"/" "/home/user/rel"));
  (* the §5.4 attack scenario: policy says /tmp/foo, attacker points it at
     /etc/passwd; normalization exposes the real target *)
  ok (Vfs.symlink fs ~cwd:"/" ~target:"/etc/passwd" ~linkpath:"/tmp/foo");
  Alcotest.(check string) "attack visible after normalization" "/etc/passwd"
    (ok (Vfs.normalize fs ~cwd:"/" "/tmp/foo"))

let test_vfs_symlink_loop () =
  let fs = fs_with_tree () in
  ok (Vfs.symlink fs ~cwd:"/" ~target:"/tmp/b" ~linkpath:"/tmp/a");
  ok (Vfs.symlink fs ~cwd:"/" ~target:"/tmp/a" ~linkpath:"/tmp/b");
  expect_err Errno.ELOOP (Vfs.read_file fs ~cwd:"/" "/tmp/a")

let test_vfs_mutations () =
  let fs = fs_with_tree () in
  ok (Vfs.mkdir fs ~cwd:"/" "/tmp/sub");
  expect_err Errno.EEXIST (Vfs.mkdir fs ~cwd:"/" "/tmp/sub");
  ok (Vfs.create_file fs ~cwd:"/" "/tmp/sub/f" ~contents:"x");
  expect_err Errno.ENOTEMPTY (Vfs.rmdir fs ~cwd:"/" "/tmp/sub");
  ok (Vfs.unlink fs ~cwd:"/" "/tmp/sub/f");
  ok (Vfs.rmdir fs ~cwd:"/" "/tmp/sub");
  ok (Vfs.create_file fs ~cwd:"/" "/tmp/one" ~contents:"1");
  ok (Vfs.rename fs ~cwd:"/" ~src:"/tmp/one" ~dst:"/tmp/two");
  Alcotest.(check bool) "src gone" false (Vfs.exists fs ~cwd:"/" "/tmp/one");
  Alcotest.(check string) "dst has data" "1" (ok (Vfs.read_file fs ~cwd:"/" "/tmp/two"));
  Alcotest.(check (list string)) "readdir"
    [ "passwd" ] (ok (Vfs.readdir fs ~cwd:"/" "/etc"))

let test_vfs_read_write_at () =
  let fs = fs_with_tree () in
  ok (Vfs.create_file fs ~cwd:"/" "/tmp/f" ~contents:"hello");
  Alcotest.(check string) "middle" "ell" (ok (Vfs.read_at fs ~cwd:"/" "/tmp/f" ~pos:1 ~len:3));
  Alcotest.(check string) "past eof" "" (ok (Vfs.read_at fs ~cwd:"/" "/tmp/f" ~pos:10 ~len:3));
  Alcotest.(check int) "extend write" 3 (ok (Vfs.write_at fs ~cwd:"/" "/tmp/f" ~pos:8 "xyz"));
  Alcotest.(check string) "gap zero filled" "hello\000\000\000xyz"
    (ok (Vfs.read_file fs ~cwd:"/" "/tmp/f"))

let prop_vfs_write_read_roundtrip =
  QCheck.Test.make ~name:"vfs write_at/read_at roundtrip" ~count:200
    QCheck.(pair (int_bound 2000) (string_of_size (Gen.int_range 1 100)))
    (fun (pos, data) ->
      let fs = Vfs.create () in
      Result.is_ok (Vfs.create_file fs ~cwd:"/" "/f" ~contents:"")
      &&
      match Vfs.write_at fs ~cwd:"/" "/f" ~pos data with
      | Error _ -> false
      | Ok _ ->
        Vfs.read_at fs ~cwd:"/" "/f" ~pos ~len:(String.length data) = Ok data)

(* --- personalities --- *)

let test_personality_tables () =
  let lin = Personality.linux and bsd = Personality.openbsd in
  (* every direct number roundtrips *)
  List.iter
    (fun pers ->
      List.iter
        (fun sem ->
          match Personality.number_of pers sem with
          | None -> ()
          | Some n ->
            Alcotest.(check bool)
              (Printf.sprintf "%s roundtrip on %s" (Syscall.name sem) (Personality.os_name pers))
              true
              (Personality.sem_of pers n = Some sem))
        Syscall.all)
    [ lin; bsd ];
  (* divergences that drive Table 2 *)
  Alcotest.(check bool) "linux mmap direct" true (Personality.number_of lin Syscall.Mmap <> None);
  Alcotest.(check bool) "openbsd mmap not direct" true
    (Personality.number_of bsd Syscall.Mmap = None);
  Alcotest.(check bool) "openbsd has __syscall" true
    (Personality.number_of bsd Syscall.Indirect <> None);
  Alcotest.(check bool) "linux has no __syscall" true
    (Personality.number_of lin Syscall.Indirect = None);
  Alcotest.(check bool) "indirect reaches mmap" true
    (Personality.indirect_target bsd 197 = Some Syscall.Mmap);
  Alcotest.(check bool) "linux issetugid absent" true
    (Personality.number_of lin Syscall.Issetugid = None)

let test_syscall_names () =
  List.iter
    (fun s -> Alcotest.(check bool) (Syscall.name s) true (Syscall.of_name (Syscall.name s) = Some s))
    Syscall.all

(* --- kernel dispatch via machine programs --- *)

let num sem =
  match Personality.number_of Personality.linux sem with
  | Some n -> n
  | None -> Alcotest.failf "no number for %s" (Syscall.name sem)

let run_program ?(stdin = "") ?(kernel = Kernel.create ()) src =
  let img = Svm.Asm.assemble_exn src in
  let proc = Kernel.spawn kernel ~stdin ~program:"test" img in
  let stop = Kernel.run kernel proc ~max_cycles:10_000_000 in
  (kernel, proc, stop)

let check_exit what expected stop =
  match (stop : Svm.Machine.stop) with
  | Svm.Machine.Halted v -> Alcotest.(check int) what expected v
  | Svm.Machine.Faulted (_, pc) -> Alcotest.failf "%s: faulted at 0x%x" what pc
  | Svm.Machine.Killed r -> Alcotest.failf "%s: killed (%s)" what r
  | Svm.Machine.Cycle_limit -> Alcotest.failf "%s: cycle limit" what

let test_hello_stdout () =
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; write
        movi r1, 1        ; stdout
        movi r2, msg
        movi r3, 6
        sys
        movi r0, %d       ; exit
        movi r1, 0
        sys
        halt
        .rodata
msg:    .ascii "hello\n"
|}
      (num Syscall.Write) (num Syscall.Exit)
  in
  let _, proc, stop = run_program src in
  check_exit "exit 0" 0 stop;
  Alcotest.(check string) "stdout" "hello\n" (Kernel.stdout_of proc)

let test_open_read_close () =
  let kernel = Kernel.create () in
  (match Vfs.create_file kernel.Kernel.vfs ~cwd:"/" "/etc/motd" ~contents:"welcome" with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "setup");
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; open
        movi r1, path
        movi r2, 0        ; O_RDONLY
        movi r3, 0
        sys
        mov r7, r0        ; fd
        movi r0, %d       ; read
        mov r1, r7
        movi r2, buf
        movi r3, 64
        sys
        mov r8, r0        ; nread
        movi r0, %d       ; close
        mov r1, r7
        sys
        movi r0, %d       ; exit(nread)
        mov r1, r8
        sys
        halt
        .rodata
path:   .asciz "/etc/motd"
        .bss
buf:    .space 64
|}
      (num Syscall.Open) (num Syscall.Read) (num Syscall.Close) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~kernel src in
  check_exit "read 7 bytes" 7 stop

let test_write_creates_file () =
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; open(path, O_CREAT|O_WRONLY)
        movi r1, path
        movi r2, 65       ; O_WRONLY | O_CREAT
        movi r3, 420
        sys
        mov r7, r0
        movi r0, %d       ; write
        mov r1, r7
        movi r2, data
        movi r3, 4
        sys
        movi r0, %d       ; exit(0)
        movi r1, 0
        sys
        halt
        .rodata
path:   .asciz "/tmp/out.txt"
data:   .ascii "data"
|}
      (num Syscall.Open) (num Syscall.Write) (num Syscall.Exit)
  in
  let kernel, _, stop = run_program src in
  check_exit "exit" 0 stop;
  Alcotest.(check string) "file contents" "data"
    (ok (Vfs.read_file kernel.Kernel.vfs ~cwd:"/" "/tmp/out.txt"))

let test_stdin_read () =
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; read(0, buf, 16)
        movi r1, 0
        movi r2, buf
        movi r3, 16
        sys
        mov r8, r0
        movi r0, %d
        mov r1, r8
        sys
        halt
        .bss
buf:    .space 16
|}
      (num Syscall.Read) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~stdin:"abcde" src in
  check_exit "read 5 from stdin" 5 stop

let test_brk_and_getpid () =
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; brk(0)
        movi r1, 0
        sys
        mov r7, r0        ; current break
        movi r0, %d       ; brk(cur + 4096)
        movi r2, 4096
        add r1, r7, r2
        sys
        sub r8, r0, r7    ; should be 4096
        movi r0, %d       ; getpid
        sys
        mov r9, r0
        movi r0, %d       ; exit(delta + pid)
        add r1, r8, r9
        sys
        halt
|}
      (num Syscall.Brk) (num Syscall.Brk) (num Syscall.Getpid) (num Syscall.Exit)
  in
  let _, _, stop = run_program src in
  check_exit "brk grew by 4096, pid 1" 4097 stop

let test_bad_pointer_efault () =
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; open with wild pointer
        movi r1, 0x3fffff8
        movi r2, 0
        sys
        movi r0, %d
        mov r1, r0
        sys
        halt
|}
      (num Syscall.Open) (num Syscall.Exit)
  in
  (* exit code is the open result (negative EFAULT) passed through r0->r1;
     note movi r0 clobbers before mov, so just check it didn't crash *)
  let _, _, stop = run_program src in
  match stop with
  | Svm.Machine.Halted _ -> ()
  | _ -> Alcotest.fail "expected graceful errno, not a crash"

(* read into the last word below max_int: [addr + len] overflows there, so
   a sum-based bounds check would pass and the copy would raise out of the
   kernel. The call must fail with EFAULT and the process keep running. *)
let test_read_efault_near_max_int () =
  let src =
    Printf.sprintf
      {|
_start: movi r2, 1
        movi r4, 62
        shl r2, r2, r4    ; min_int
        addi r2, r2, -8   ; max_int - 7
        movi r0, %d       ; read(0, max_int - 7, 8)
        movi r1, 0
        movi r3, 8
        sys
        mov r8, r0
        movi r0, %d       ; exit(result)
        mov r1, r8
        sys
        halt
|}
      (num Syscall.Read) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~stdin:"abcdefgh" src in
  check_exit "read into max_int - 7" (-Errno.code Errno.EFAULT) stop

let test_unknown_syscall_enosys () =
  let src =
    Printf.sprintf
      {|
_start: movi r0, 9999
        sys
        mov r8, r0
        movi r0, %d
        mov r1, r8
        sys
        halt
|}
      (num Syscall.Exit)
  in
  let _, _, stop = run_program src in
  check_exit "ENOSYS" (-Errno.code Errno.ENOSYS) stop

let test_execve_replaces_image () =
  let kernel = Kernel.create () in
  (* target program: exits 42 *)
  let target =
    Svm.Asm.assemble_exn
      (Printf.sprintf "_start: movi r0, %d\n movi r1, 42\n sys\n halt" (num Syscall.Exit))
  in
  Kernel.install_binary kernel ~path:"/bin/target" target;
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; execve("/bin/target")
        movi r1, path
        movi r2, 0
        movi r3, 0
        sys
        movi r0, %d       ; not reached on success
        movi r1, 7
        sys
        halt
        .rodata
path:   .asciz "/bin/target"
|}
      (num Syscall.Execve) (num Syscall.Exit)
  in
  let _, proc, stop = run_program ~kernel src in
  check_exit "exec'd program exit code" 42 stop;
  Alcotest.(check string) "program name updated" "/bin/target" proc.Process.program

(* [Kernel.spawn] refuses an image with a section past the end of memory,
   and [execve] must refuse it too: with -EINVAL, before it wipes anything
   of the caller, whose memory, registers and pc carry on as they were. *)
let test_execve_rejects_image_outside_memory () =
  let exit_42 =
    Svm.Asm.assemble_exn
      (Printf.sprintf "_start: movi r0, %d\n movi r1, 42\n sys\n halt" (num Syscall.Exit))
  in
  let caller =
    Svm.Asm.assemble_exn
      (Printf.sprintf
         {|
_start: movi r9, 77       ; must survive the failed execve
        movi r0, %d       ; execve("/bin/bad")
        movi r1, path
        movi r2, 0
        movi r3, 0
        sys
        mov r1, r0        ; exit(result)
        movi r0, %d
        sys
        halt
        .rodata
path:   .asciz "/bin/bad"
|}
         (num Syscall.Execve) (num Syscall.Exit))
  in
  List.iter
    (fun (kind, payload) ->
      let tail =
        { Svm.Obj_file.sec_name = ".tail";
          sec_kind = kind;
          sec_addr = Svm.Machine.default_mem_size - 8;
          sec_size = 16;
          sec_payload = payload }
      in
      let bad = { exit_42 with sections = exit_42.sections @ [ tail ] } in
      let kernel = Kernel.create () in
      (match Kernel.spawn kernel ~program:"bad" bad with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "spawn accepted a section past memory");
      Kernel.install_binary kernel ~path:"/bin/bad" bad;
      let proc = Kernel.spawn kernel ~program:"caller" caller in
      let m = proc.Process.machine in
      let before = Bytes.copy m.mem in
      check_exit "execve returns -EINVAL" (-Errno.code Errno.EINVAL)
        (Kernel.run kernel proc ~max_cycles:10_000_000);
      Alcotest.(check bool) "caller memory intact" true (Bytes.equal before m.mem);
      Alcotest.(check int) "r9 intact" 77 m.regs.(9);
      Alcotest.(check int) "sp intact" (Svm.Machine.stack_top m) m.regs.(Svm.Isa.sp);
      Alcotest.(check string) "still the caller" "caller" proc.Process.program;
      Alcotest.(check int) "no execve audited" 0 (List.length (Kernel.audit_log kernel)))
    [ (Svm.Obj_file.Data, String.make 16 'x'); (Svm.Obj_file.Bss, "") ]

(* A spawn takes over the memory of the process that exited last on the
   same kernel. Each process here leaves a marker just below its stack top,
   in its heap and at a high unused address. The next process must start
   exactly as on a fresh machine, and the exited one's handle must read
   nothing any more. *)
let test_spawn_reuses_exited_memory () =
  let kernel = Kernel.create () in
  let marker = 0x5eedcafe in
  let img =
    Svm.Asm.assemble_exn
      (Printf.sprintf
         {|
_start: movi r1, %d
        push r1           ; just below the stack top
        movi r0, %d       ; brk(0): the heap start
        movi r1, 0
        sys
        movi r1, %d
        st [r0+0], r1
        movi r2, 0x300000
        st [r2+0], r1
        movi r0, %d       ; exit(0)
        movi r1, 0
        sys
        halt
|}
         marker (num Syscall.Brk) marker (num Syscall.Exit))
  in
  let fresh = Svm.Loader.load img in
  let starts_fresh what (p : Process.t) =
    let m = p.machine in
    Alcotest.(check int) (what ^ ": 4 MiB") Svm.Machine.default_mem_size (Bytes.length m.mem);
    Alcotest.(check bool) (what ^ ": memory equals a fresh load") true
      (Bytes.equal fresh.mem m.mem);
    Alcotest.(check (array int)) (what ^ ": registers") fresh.regs m.regs;
    Alcotest.(check int) (what ^ ": pc") fresh.pc m.pc
  in
  let run_marking what (p : Process.t) =
    check_exit (what ^ " exits") 0 (Kernel.run kernel p ~max_cycles:1_000_000);
    let m = p.machine in
    let addrs = [ Svm.Machine.stack_top m - 8; p.heap_start; 0x300000 ] in
    List.iter
      (fun addr ->
        Alcotest.(check (option int)) (what ^ ": marker readable after exit") (Some marker)
          (Svm.Machine.read_word m addr))
      addrs;
    addrs
  in
  let a = Kernel.spawn kernel ~program:"a" img in
  let a_addrs = run_marking "a" a in
  let a_mem = a.machine.mem in
  let b = Kernel.spawn kernel ~program:"b" img in
  starts_fresh "b" b;
  Alcotest.(check bool) "b runs in a's buffer" true (b.machine.mem == a_mem);
  List.iter
    (fun addr ->
      Alcotest.(check (option int)) "a's handle reads nothing" None
        (Svm.Machine.read_word a.machine addr))
    a_addrs;
  ignore (run_marking "b" b);
  let b_mem = b.machine.mem in
  (* a is finished and its memory is gone: running it again must not park
     its empty buffer in place of b's *)
  check_exit "a stays halted" 0 (Kernel.run kernel a ~max_cycles:1_000_000);
  let c = Kernel.spawn kernel ~program:"c" img in
  starts_fresh "c" c;
  Alcotest.(check bool) "c runs in b's buffer" true (c.machine.mem == b_mem)

(* The kernel names a pid's trace track only when it records a span for
   it: untraced processes leave nothing behind in the span collector. *)
let test_track_names_only_when_traced () =
  let kernel = Kernel.create () in
  let img =
    Svm.Asm.assemble_exn
      (Printf.sprintf "_start: movi r0, %d\n sys\n halt" (num Syscall.Getpid))
  in
  let spawn_run program =
    let p = Kernel.spawn kernel ~program img in
    ignore (Kernel.run kernel p ~max_cycles:1_000_000);
    p.Process.pid
  in
  for _ = 1 to 1000 do
    let pid = spawn_run "tool" in
    if Asc_obs.Trace.track_name (Kernel.spans kernel) ~track:pid <> None then
      Alcotest.failf "untraced pid %d has a track name" pid
  done;
  kernel.Kernel.tracing <- true;
  let pid = spawn_run "traced" in
  let open Asc_obs in
  let field k conv j = Option.bind (Json.member k j) conv in
  let events =
    Option.get (field "traceEvents" Json.to_list (Trace.to_chrome (Kernel.spans kernel)))
  in
  let thread_names =
    List.filter_map
      (fun ev ->
        if field "name" Json.to_str ev = Some "thread_name" then
          Some (field "tid" Json.to_int ev, field "args" (field "name" Json.to_str) ev)
        else None)
      events
  in
  Alcotest.(check (list (pair (option int) (option string)))) "one thread_name, the traced pid's"
    [ (Some pid, Some "traced") ] thread_names

let test_monitor_deny () =
  let kernel = Kernel.create () in
  let deny_all =
    { Kernel.monitor_name = "deny-all";
      pre_syscall = (fun _ ~site:_ ~number:_ -> Kernel.Deny "not authenticated");
      post_syscall = Kernel.no_post }
  in
  Kernel.set_monitor kernel (Some deny_all);
  let src = Printf.sprintf "_start: movi r0, %d\n sys\n halt" (num Syscall.Getpid) in
  let _, _, stop = run_program ~kernel src in
  (match stop with
   | Svm.Machine.Killed reason -> Alcotest.(check string) "reason" "not authenticated" reason
   | _ -> Alcotest.fail "expected kill");
  Alcotest.(check int) "deny counted" 1 (Kernel.denied_count kernel);
  Alcotest.(check int) "trap counted" 1 (Kernel.syscall_count kernel);
  (match Kernel.audit_log kernel with
   | [ Kernel.Denied d ] ->
     Alcotest.(check int) "audited number" (num Syscall.Getpid) d.number;
     Alcotest.(check string) "audited reason" "not authenticated" d.reason;
     let rendered = Kernel.audit_to_string (Kernel.Denied d) in
     let contains ~sub s =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "rendering mentions DENIED" true (contains ~sub:"DENIED" rendered);
     Alcotest.(check bool) "rendering carries the reason" true
       (contains ~sub:"not authenticated" rendered)
   | _ -> Alcotest.fail "expected exactly one Denied audit entry")

(* --- structured violations --- *)

let test_violation_entry () =
  let kernel = Kernel.create () in
  kernel.Kernel.tracing <- true;
  let calls = ref 0 in
  (* allow four calls, then produce a structured deny; the kernel must
     overwrite the monitor's placeholder site/number with the real trap
     coordinates and resolve the syscall name *)
  let mon =
    { Kernel.monitor_name = "deny-fifth";
      pre_syscall =
        (fun _ ~site:_ ~number:_ ->
          incr calls;
          if !calls < 5 then Kernel.Allow
          else
            Kernel.Deny_violation
              { Violation.v_step = Violation.Control_flow;
                v_site = 0;
                v_number = 0;
                v_sem = None;
                v_reason = "policy violation";
                v_expected_mac = Some "00ff";
                v_got_mac = Some "ff00" });
      post_syscall = Kernel.no_post }
  in
  Kernel.set_monitor kernel (Some mon);
  let getpid = Printf.sprintf " movi r0, %d\n sys\n" (num Syscall.Getpid) in
  let src = "_start:" ^ String.concat "" (List.init 5 (fun _ -> getpid)) ^ " halt" in
  let kernel, _, stop = run_program ~kernel src in
  (match stop with
   | Svm.Machine.Killed reason -> Alcotest.(check string) "kill reason" "policy violation" reason
   | _ -> Alcotest.fail "expected kill");
  (* the denied call itself is never dispatched, so it is not traced *)
  Alcotest.(check int) "four calls dispatched before the deny" 4
    (List.length (Kernel.trace kernel));
  match Kernel.audit_log kernel with
  | [ Kernel.Violation { violation = v; pid; program } ] ->
    Alcotest.(check int) "pid" 1 pid;
    Alcotest.(check string) "program" "test" program;
    Alcotest.(check string) "step survives" "control_flow" (Violation.step_name v.Violation.v_step);
    Alcotest.(check (option string)) "sem resolved by the kernel" (Some "getpid")
      v.Violation.v_sem;
    Alcotest.(check int) "number overridden" (num Syscall.Getpid) v.Violation.v_number;
    Alcotest.(check bool) "site overridden" true (v.Violation.v_site > 0);
    Alcotest.(check (option string)) "expected MAC kept" (Some "00ff") v.Violation.v_expected_mac
  | entries -> Alcotest.failf "expected exactly one Violation entry, got %d" (List.length entries)

(* The host work of a deny is bounded by the deny itself, not by how many
   calls the process made before it: with tracing on, the minor words
   from the monitor's deny to the return of [Kernel.run] are the same
   after 10 and after 5,000 earlier traced calls. *)
let deny_words ~history =
  let kernel = Kernel.create () in
  kernel.Kernel.tracing <- true;
  let calls = ref 0 and mark = ref 0 in
  let v =
    { Violation.v_step = Violation.Call_mac;
      v_site = 0;
      v_number = 0;
      v_sem = None;
      v_reason = "late deny";
      v_expected_mac = None;
      v_got_mac = None }
  in
  let mon =
    { Kernel.monitor_name = "deny-late";
      pre_syscall =
        (fun _ ~site:_ ~number:_ ->
          incr calls;
          if !calls <= history then Kernel.Allow
          else begin
            mark := Asc_obs.Profile.minor_words ();
            Kernel.Deny_violation v
          end);
      post_syscall = Kernel.no_post }
  in
  Kernel.set_monitor kernel (Some mon);
  let src = Printf.sprintf "_start: movi r0, %d\n sys\n jmp _start" (num Syscall.Getpid) in
  let proc = Kernel.spawn kernel ~program:"test" (Svm.Asm.assemble_exn src) in
  let stop = Kernel.run kernel proc ~max_cycles:1_000_000_000 in
  let words = Asc_obs.Profile.minor_words () - !mark in
  (match stop with
   | Svm.Machine.Killed _ -> ()
   | _ -> Alcotest.fail "expected kill");
  Alcotest.(check int) "calls traced before the deny" history
    (List.length (Kernel.trace kernel));
  words

let test_deny_words_flat () =
  let short = deny_words ~history:10 and long = deny_words ~history:5_000 in
  if abs (long - short) > 64 then
    Alcotest.failf "a deny cost %d minor words after 10 traced calls, %d after 5,000" short long

(* The kernel's rendering of a violation: the [audit] line asc_run
   prints for each entry names the process, the step, the trap site in
   hex, the number, the resolved syscall when there is one, and the
   reason. *)
let test_violation_audit_line () =
  let v =
    { Violation.v_step = Violation.String_mac;
      v_site = 0x1040;
      v_number = 2;
      v_sem = Some "open";
      v_reason = "argument 0: string authentication failed";
      v_expected_mac = Some "00ff";
      v_got_mac = Some "ff00" }
  in
  Alcotest.(check string) "with the syscall name"
    "pid 3 VIOLATION victim string_mac at site 0x1040 number 2 (open): argument 0: string \
     authentication failed"
    (Kernel.audit_to_string (Kernel.Violation { pid = 3; program = "victim"; violation = v }));
  Alcotest.(check string) "an unresolved number has no name"
    "unauthenticated at site 0x8 number 999: not authenticated"
    (Violation.to_string
       { v with
         Violation.v_step = Violation.Unauthenticated;
         v_site = 8;
         v_number = 999;
         v_sem = None;
         v_reason = "not authenticated" })

let gen_audit_string = QCheck.Gen.(string_size ~gen:printable (0 -- 10))

let gen_audit_nat = QCheck.Gen.(0 -- 100_000)

let gen_violation =
  let open QCheck.Gen in
  let opt_s = opt gen_audit_string in
  oneofl Violation.all_steps >>= fun v_step ->
  gen_audit_nat >>= fun v_site ->
  gen_audit_nat >>= fun v_number ->
  opt_s >>= fun v_sem ->
  gen_audit_string >>= fun v_reason ->
  opt_s >>= fun v_expected_mac ->
  opt_s >>= fun v_got_mac ->
  return { Violation.v_step; v_site; v_number; v_sem; v_reason; v_expected_mac; v_got_mac }

(* every audit entry carries the uniform envelope (kind/pid/program) *)
let qcheck_audit_json_envelope =
  let open QCheck.Gen in
  let s = gen_audit_string and nat = gen_audit_nat in
  let gen_entry =
    oneof
      [ map
          (fun ((pid, program), ((site, number), reason)) ->
            Kernel.Denied { pid; program; site; number; reason })
          (pair (pair nat s) (pair (pair nat nat) s));
        map
          (fun ((pid, program), path) -> Kernel.Execve { pid; program; path })
          (pair (pair nat s) s);
        map
          (fun ((pid, program), violation) -> Kernel.Violation { pid; program; violation })
          (pair (pair nat s) gen_violation) ]
  in
  QCheck.Test.make ~name:"audit_to_json envelope" ~count:300 (QCheck.make gen_entry)
    (fun entry ->
      let pid, program =
        match entry with
        | Kernel.Denied { pid; program; _ }
        | Kernel.Execve { pid; program; _ }
        | Kernel.Violation { pid; program; _ } -> (pid, program)
      in
      let j = Kernel.audit_to_json entry in
      Option.is_some (Option.bind (Asc_obs.Json.member "kind" j) Asc_obs.Json.to_str)
      && Option.bind (Asc_obs.Json.member "pid" j) Asc_obs.Json.to_int = Some pid
      && Option.bind (Asc_obs.Json.member "program" j) Asc_obs.Json.to_str = Some program)

(* a violation's JSON carries every field of the typed entry with its
   value: what [asc_trace --format json] emits for a deny *)
let qcheck_violation_json_fields =
  let open Asc_obs.Json in
  let opt = function Some s -> Str s | None -> Null in
  QCheck.Test.make ~name:"audit_to_json violation fields" ~count:300
    (QCheck.make QCheck.Gen.(pair (pair gen_audit_nat gen_audit_string) gen_violation))
    (fun ((pid, program), v) ->
      let j = Kernel.audit_to_json (Kernel.Violation { pid; program; violation = v }) in
      List.for_all
        (fun (k, expect) -> member k j = Some expect)
        [ ("kind", Str "violation");
          ("step", Str (Violation.step_name v.Violation.v_step));
          ("site", Int v.Violation.v_site);
          ("number", Int v.Violation.v_number);
          ("sem", opt v.Violation.v_sem);
          ("reason", Str v.Violation.v_reason);
          ("expected_mac", opt v.Violation.v_expected_mac);
          ("got_mac", opt v.Violation.v_got_mac) ])

(* The svm.* counters live in each kernel's own registry: a run under the
   checker shows up whole in its kernel's, and in no other. *)
let test_vm_counters_isolated () =
  let key = Asc_crypto.Cmac.of_raw "vm-counters-key!" in
  let src =
    "int main() {\n  int i;\n  for (i = 0; i < 3; i = i + 1) { getpid(); }\n\
    \  write(1, \"ok\\n\", 3);\n  return 0;\n}\n"
  in
  let img = Minic.Driver.compile_exn ~personality:Personality.linux src in
  let inst =
    match Asc_core.Installer.install ~key ~personality:Personality.linux ~program:"vm" img with
    | Ok inst -> inst
    | Error e -> Alcotest.failf "install: %s" e
  in
  let kernel_a = Kernel.create () in
  Kernel.set_monitor kernel_a (Some (Asc_core.Checker.monitor ~kernel:kernel_a ~key ()));
  let p = Kernel.spawn kernel_a ~program:"vm" inst.Asc_core.Installer.image in
  check_exit "exits" 0 (Kernel.run kernel_a p ~max_cycles:100_000_000);
  let kernel_b = Kernel.create () in
  let m = p.Process.machine in
  let value k name = Asc_obs.Metrics.value (Kernel.metrics k) name in
  Alcotest.(check (option int)) "kernel A saw the run's instructions" (Some m.instrs)
    (value kernel_a "svm.instructions");
  Alcotest.(check (option int)) "kernel A saw the run's cycles" (Some m.cycles)
    (value kernel_a "svm.cycles");
  List.iter
    (fun name ->
      Alcotest.(check (option int)) ("kernel B saw no " ^ name) (Some 0) (value kernel_b name);
      Alcotest.(check (option int)) ("no " ^ name ^ " in the default registry") None
        (Asc_obs.Metrics.value Asc_obs.Metrics.default name))
    [ "svm.instructions"; "svm.cycles" ]

let test_tracing () =
  let kernel = Kernel.create () in
  kernel.Kernel.tracing <- true;
  let src =
    Printf.sprintf "_start: movi r0, %d\n sys\n movi r0, %d\n movi r1, 0\n sys\n halt"
      (num Syscall.Getpid) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~kernel src in
  check_exit "exit" 0 stop;
  let tr = Kernel.trace kernel in
  Alcotest.(check int) "two syscalls traced" 2 (List.length tr);
  (match tr with
   | first :: _ ->
     Alcotest.(check bool) "first is getpid" true (first.Kernel.t_sem = Some Syscall.Getpid);
     Alcotest.(check int) "result is pid" 1 first.Kernel.t_result
   | [] -> Alcotest.fail "empty trace")

(* One argument array serves every trap of a run, so each trace entry
   must hold its own copy: the first call's arguments survive the second
   call's. *)
let test_traced_args_distinct () =
  let kernel = Kernel.create () in
  kernel.Kernel.tracing <- true;
  let src =
    Printf.sprintf
      "_start: movi r0, %d\n movi r1, 11\n movi r6, 16\n sys\n\
      \ movi r0, %d\n movi r1, 21\n movi r6, 26\n sys\n\
      \ movi r0, %d\n movi r1, 0\n sys\n halt"
      (num Syscall.Getpid) (num Syscall.Getuid) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~kernel src in
  check_exit "exit" 0 stop;
  match Kernel.trace kernel with
  | first :: second :: _ ->
    Alcotest.(check (array int)) "first call's arguments" [| 11; 0; 0; 0; 0; 16 |]
      first.Kernel.t_args;
    Alcotest.(check (array int)) "second call's arguments" [| 21; 0; 0; 0; 0; 26 |]
      second.Kernel.t_args;
    Alcotest.(check bool) "two arrays" false (first.Kernel.t_args == second.Kernel.t_args)
  | _ -> Alcotest.fail "expected three traced calls"

(* [sem_of] indexes a table by number: anything outside it, negative,
   past the largest number or above bit 31, has no operation *)
let test_sem_of_outside_table () =
  List.iter
    (fun pers ->
      let write = Option.get (Personality.number_of pers Syscall.Write) in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%d on %s" n (Personality.os_name pers))
            true
            (Personality.sem_of pers n = None))
        [ -1; min_int; 2; 100_000; max_int; write + (1 lsl 32) ])
    [ Personality.linux; Personality.openbsd ];
  Alcotest.(check bool) "openbsd: mmap by its indirect-only number" true
    (Personality.sem_of Personality.openbsd 197 = Some Syscall.Mmap)

(* the trace ring is bounded but syscall_count sees every trap *)
let test_trace_ring_cap () =
  let kernel = Kernel.create ~trace_capacity:3 () in
  kernel.Kernel.tracing <- true;
  let getpid = Printf.sprintf " movi r0, %d\n sys\n" (num Syscall.Getpid) in
  let src = "_start:" ^ String.concat "" (List.init 5 (fun _ -> getpid)) ^ " halt" in
  let _, _, stop = run_program ~kernel src in
  check_exit "exit" 1 stop;
  (* the last getpid leaves pid 1 in r0; Halted reports r0 *)
  Alcotest.(check int) "all traps counted" 5 (Kernel.syscall_count kernel);
  Alcotest.(check int) "ring keeps newest 3" 3 (List.length (Kernel.trace kernel));
  Alcotest.(check int) "per-sem counter" 5
    (Option.value ~default:0 (Asc_obs.Metrics.value (Kernel.metrics kernel) "kernel.syscall.getpid"));
  Kernel.clear_trace kernel;
  Alcotest.(check int) "trace cleared" 0 (List.length (Kernel.trace kernel));
  Alcotest.(check int) "spans cleared too" 0 (Asc_obs.Trace.length (Kernel.spans kernel));
  Alcotest.(check int) "count survives clear" 5 (Kernel.syscall_count kernel)

let test_audit_ring_cap () =
  let kernel = Kernel.create ~audit_capacity:2 () in
  let deny_all =
    { Kernel.monitor_name = "deny-all";
      pre_syscall = (fun _ ~site:_ ~number:_ -> Kernel.Deny "no");
      post_syscall = Kernel.no_post }
  in
  Kernel.set_monitor kernel (Some deny_all);
  let src = Printf.sprintf "_start: movi r0, %d\n sys\n halt" (num Syscall.Getpid) in
  for _ = 1 to 3 do ignore (run_program ~kernel src) done;
  Alcotest.(check int) "audit ring capped" 2 (List.length (Kernel.audit_log kernel));
  Alcotest.(check int) "every denial counted" 3 (Kernel.denied_count kernel);
  Kernel.clear_audit kernel;
  Alcotest.(check (list string)) "audit cleared" []
    (List.map Kernel.audit_to_string (Kernel.audit_log kernel));
  Alcotest.(check int) "denied_count survives clear" 3 (Kernel.denied_count kernel)

let test_openbsd_indirect_mmap () =
  let kernel = Kernel.create ~personality:Personality.openbsd () in
  let n_ind = Option.get (Personality.number_of Personality.openbsd Syscall.Indirect) in
  let n_exit = Option.get (Personality.number_of Personality.openbsd Syscall.Exit) in
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; __syscall
        movi r1, 197      ; SYS_mmap
        movi r2, 0        ; addr hint
        movi r3, 8192     ; length
        sys
        mov r8, r0
        movi r0, %d
        mov r1, r8
        sys
        halt
|}
      n_ind n_exit
  in
  let _, _, stop = run_program ~kernel src in
  match stop with
  | Svm.Machine.Halted addr -> Alcotest.(check bool) "mmap returned an address" true (addr > 0)
  | _ -> Alcotest.fail "mmap via __syscall failed"

let test_getdirentries () =
  let kernel = Kernel.create () in
  ok (Vfs.create_file kernel.Kernel.vfs ~cwd:"/" "/etc/a" ~contents:"");
  ok (Vfs.create_file kernel.Kernel.vfs ~cwd:"/" "/etc/b" ~contents:"");
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; open("/etc", O_RDONLY)
        movi r1, path
        movi r2, 0
        sys
        mov r7, r0
        movi r0, %d       ; getdirentries(fd, buf, 64)
        mov r1, r7
        movi r2, buf
        movi r3, 64
        sys
        mov r8, r0
        movi r0, %d
        mov r1, r8
        sys
        halt
        .rodata
path:   .asciz "/etc"
        .bss
buf:    .space 64
|}
      (num Syscall.Open) (num Syscall.Getdirentries) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~kernel src in
  check_exit "two entries a\\0b\\0" 4 stop

(* A negative length must not reach [String.sub]: the call returns
   -EINVAL and the guest runs on. The guest exits with the call's result
   plus EINVAL, so 0 says the call returned -EINVAL. *)
let run_negative_length what ~prepare call =
  let kernel = Kernel.create () in
  prepare kernel;
  let src =
    Printf.sprintf
      "%s\n        addi r1, r0, %d\n        movi r0, %d\n        sys\n        halt\n\
      \        .rodata\nlink:   .asciz \"/tmp/link\"\ndir:    .asciz \"/etc\"\n\
      \        .bss\nbuf:    .space 64\n"
      call (Errno.code Errno.EINVAL) (num Syscall.Exit)
  in
  let _, _, stop = run_program ~kernel src in
  check_exit (what ^ " returns -EINVAL") 0 stop

let test_readlink_negative_length () =
  run_negative_length "readlink(link, buf, -1)"
    ~prepare:(fun k ->
      ok (Vfs.symlink k.Kernel.vfs ~cwd:"/" ~target:"/etc/passwd" ~linkpath:"/tmp/link"))
    (Printf.sprintf "_start: movi r0, %d\n movi r1, link\n movi r2, buf\n movi r3, -1\n sys"
       (num Syscall.Readlink))

let test_getdirentries_negative_length () =
  run_negative_length "getdirentries(dirfd, buf, -1)"
    ~prepare:(fun k -> ok (Vfs.create_file k.Kernel.vfs ~cwd:"/" "/etc/a" ~contents:""))
    (Printf.sprintf
       "_start: movi r0, %d\n movi r1, dir\n movi r2, 0\n sys\n mov r1, r0\n movi r0, %d\n\
       \ movi r2, buf\n movi r3, -1\n sys"
       (num Syscall.Open) (num Syscall.Getdirentries))

(* [mmap] bounds the length before rounding it up to pages: a length near
   [max_int] is -ENOMEM, not a wrapped region, and the next mapping starts
   where the refused one would have. *)
let test_mmap_huge_length_enomem () =
  let mmap = num Syscall.Mmap in
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; mmap(0, 4096)
        movi r1, 0
        movi r2, 4096
        movi r5, -1
        sys
        mov r8, r0
        movi r2, 1
        movi r4, 62
        shl r2, r2, r4    ; min_int
        addi r2, r2, -1   ; max_int
        movi r0, %d       ; mmap(0, max_int)
        movi r1, 0
        sys
        mov r9, r0
        movi r0, %d       ; mmap(0, 4096)
        movi r1, 0
        movi r2, 4096
        sys
        mov r10, r0
        movi r0, %d       ; exit(0)
        movi r1, 0
        sys
        halt
|}
      mmap mmap mmap (num Syscall.Exit)
  in
  let _, proc, stop = run_program src in
  check_exit "exits" 0 stop;
  let r = proc.Process.machine.regs in
  Alcotest.(check int) "mmap(max_int) is -ENOMEM" (-Errno.code Errno.ENOMEM) r.(9);
  Alcotest.(check int) "the next mmap follows the first" (r.(8) + 4096) r.(10);
  Alcotest.(check int) "mmap_next" (r.(10) + 4096) proc.Process.mmap_next

(* A guest may [lseek] anywhere, but a write may not end past
   [Vfs.max_file_size]: the offset must not choose how much the host
   allocates, and [pos + len] must not wrap near [max_int]. [offset] is
   assembly that leaves the offset in r2. *)
let run_write_past_max_file_size ~offset expected_pos =
  let kernel = Kernel.create () in
  ok (Vfs.create_file kernel.Kernel.vfs ~cwd:"/" "/tmp/f" ~contents:"");
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; open("/tmp/f", O_RDWR)
        movi r1, path
        movi r2, 2
        sys
        mov r7, r0
%s
        movi r0, %d       ; lseek(fd, offset, SEEK_SET)
        mov r1, r7
        movi r3, 0
        sys
        mov r8, r0
        movi r0, %d       ; write(fd, "x", 1)
        mov r1, r7
        movi r2, path
        movi r3, 1
        sys
        mov r9, r0
        movi r0, %d       ; exit(0)
        movi r1, 0
        sys
        halt
        .rodata
path:   .asciz "/tmp/f"
|}
      (num Syscall.Open) offset (num Syscall.Lseek) (num Syscall.Write) (num Syscall.Exit)
  in
  let proc = Kernel.spawn kernel ~program:"efbig" (Svm.Asm.assemble_exn src) in
  let bytes0 = Gc.allocated_bytes () in
  let stop = Kernel.run kernel proc ~max_cycles:10_000_000 in
  let bytes = Gc.allocated_bytes () -. bytes0 in
  check_exit "exits" 0 stop;
  let r = proc.Process.machine.regs in
  Alcotest.(check int) "lseek took the offset" expected_pos r.(8);
  Alcotest.(check int) "write is -EFBIG" (-Errno.code Errno.EFBIG) r.(9);
  Alcotest.(check string) "file stays empty" ""
    (ok (Vfs.read_file kernel.Kernel.vfs ~cwd:"/" "/tmp/f"));
  if bytes >= 1048576. then Alcotest.failf "Kernel.run allocated %.0f bytes" bytes

let max_int_in_r2 = "        movi r2, 1\n        movi r4, 62\n        shl r2, r2, r4\n"

let test_write_efbig_near_max_int () =
  run_write_past_max_file_size ~offset:(max_int_in_r2 ^ "        addi r2, r2, -11")
    (max_int - 10)

let test_write_efbig_at_max_int () =
  run_write_past_max_file_size ~offset:(max_int_in_r2 ^ "        addi r2, r2, -1") max_int

let test_write_efbig_at_256_mib () =
  run_write_past_max_file_size ~offset:"        movi r2, 268435456" (256 * 1024 * 1024)

(* The kernel's per-call I/O cap ([max_io] in kernel.ml): the most a write
   copies out of guest memory. *)
let max_io = 1 lsl 20

(* A write to a closed descriptor fails on the descriptor alone: [write],
   [sendto] and [writev] of [max_io] readable bytes to one return -EBADF,
   copy nothing (well under 64 KiB allocated on the host) and charge
   exactly what a zero-length write to it charges. The guest closes
   stdout, then makes one call; [len] is its byte count, or the length in
   its one iovec. *)
let run_closed_write sem ~len =
  let buf = 0x100000 and iov = 0x200000 in
  let ptr, count = if sem = Syscall.Writev then (iov, 1) else (buf, len) in
  let src =
    Printf.sprintf
      {|
_start: movi r0, %d       ; close(1)
        movi r1, 1
        sys
        movi r0, %d
        movi r1, 1
        movi r2, %d
        movi r3, %d
        movi r4, 0
        movi r5, 0
        movi r6, 0
        sys
        mov r9, r0
        movi r0, %d       ; exit(0)
        movi r1, 0
        sys
        halt
|}
      (num Syscall.Close) (num sem) ptr count (num Syscall.Exit)
  in
  let kernel = Kernel.create () in
  let proc = Kernel.spawn kernel ~program:"closed" (Svm.Asm.assemble_exn src) in
  let m = proc.Process.machine in
  assert (Svm.Machine.write_word m iov buf && Svm.Machine.write_word m (iov + 8) len);
  let bytes0 = Gc.allocated_bytes () in
  let stop = Kernel.run kernel proc ~max_cycles:100_000_000 in
  let bytes = Gc.allocated_bytes () -. bytes0 in
  check_exit (Syscall.name sem ^ " exits") 0 stop;
  (m.regs.(9), m.cycles, bytes)

let test_write_closed_fd_copies_nothing () =
  List.iter
    (fun sem ->
      let what = Syscall.name sem in
      let ret, cycles, bytes = run_closed_write sem ~len:max_io in
      let ret0, cycles0, _ = run_closed_write sem ~len:0 in
      Alcotest.(check int) (what ^ " is -EBADF") (-Errno.code Errno.EBADF) ret;
      Alcotest.(check int) (what ^ " of 0 bytes is -EBADF") (-Errno.code Errno.EBADF) ret0;
      Alcotest.(check int) (what ^ " charges what a zero-length one does") cycles0 cycles;
      if bytes >= 65536. then Alcotest.failf "%s: Kernel.run allocated %.0f bytes" what bytes)
    [ Syscall.Write; Syscall.Sendto; Syscall.Writev ]

let exit_0_image () =
  Svm.Asm.assemble_exn
    (Printf.sprintf "_start: movi r0, %d\n movi r1, 0\n sys\n halt" (num Syscall.Exit))

let library sections = { Svm.Obj_file.entry = 0; sections; symbols = []; relocs = [] }

(* Every check that can refuse a spawn runs before it takes the parked
   buffer: after refused spawns, the next good one still runs in the
   buffer the last exited process left. *)
let test_failed_spawn_keeps_parked_buffer () =
  let kernel = Kernel.create () in
  let img = exit_0_image () in
  let a = Kernel.spawn kernel ~program:"a" img in
  check_exit "a exits" 0 (Kernel.run kernel a ~max_cycles:1_000_000);
  let a_mem = a.machine.mem in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "spawn accepted %s" what
  in
  let past_memory =
    { Svm.Obj_file.sec_name = ".tail";
      sec_kind = Svm.Obj_file.Data;
      sec_addr = Svm.Machine.default_mem_size - 8;
      sec_size = 16;
      sec_payload = String.make 16 'x' }
  in
  refused "an image past memory" (fun () ->
      Kernel.spawn kernel ~program:"bad" { img with sections = img.sections @ [ past_memory ] });
  refused "a library overlapping the image" (fun () ->
      Kernel.spawn kernel ~program:"bad" img
        ~libs:[ library [ { past_memory with sec_addr = Svm.Asm.text_base } ] ]);
  let b = Kernel.spawn kernel ~program:"b" img in
  Alcotest.(check bool) "b runs in a's buffer" true (b.machine.mem == a_mem);
  check_exit "b exits" 0 (Kernel.run kernel b ~max_cycles:1_000_000)

(* A library's Bss is checked like the image's: one past the end of
   memory would put the heap start past it too. *)
let test_library_bss_past_memory () =
  let bss =
    { Svm.Obj_file.sec_name = ".bss";
      sec_kind = Svm.Obj_file.Bss;
      sec_addr = Svm.Machine.default_mem_size - 8;
      sec_size = 64;
      sec_payload = "" }
  in
  let kernel = Kernel.create () in
  match Kernel.spawn kernel ~program:"p" ~libs:[ library [ bss ] ] (exit_0_image ()) with
  | exception Invalid_argument _ -> ()
  | p -> Alcotest.failf "spawn accepted it; heap start 0x%x" p.Process.heap_start

(* Every syscall that writes guest memory marks what it wrote: a guest
   makes each one into its own page, under the ASC monitor so the
   checker's lbMAC write-back runs too (twice round, so the fast path
   writes it as well as the reference path). After the guest exits, the
   next spawn in its buffer must start exactly as on a fresh machine; after
   the guest execs, so must the new image. *)
let test_syscall_writes_leave_nothing () =
  let key = Asc_crypto.Cmac.of_raw "dirty-map-key-16" in
  let page k = 0x100000 + (k * Svm.Asm.page_size) + 0x800 in
  let calls =
    [ Printf.sprintf "read(fd, %d, 16) != 16" (page 0);
      Printf.sprintf "stat(\"/tmp/data\", %d) != 0" (page 1);
      Printf.sprintf "fstat(fd, %d) != 0" (page 2);
      Printf.sprintf "fstatfs(fd, %d) != 0" (page 3);
      Printf.sprintf "gettimeofday(%d, 0) != 0" (page 4);
      Printf.sprintf "uname(%d) != 0" (page 5);
      Printf.sprintf "getcwd(%d, 64) <= 0" (page 6);
      Printf.sprintf "readlink(\"/tmp/link\", %d, 64) <= 0" (page 7);
      Printf.sprintf "getdirentries(dir, %d, 256, 0) <= 0" (page 8);
      "mmap(0, 4096, 3, 2, fd, 0) <= 0" ]
  in
  let guest tail =
    Printf.sprintf
      "int main() {\n  int i;\n  for (i = 0; i < 2; i = i + 1) {\n\
      \    int fd = open(\"/tmp/data\", 0, 0);\n    int dir = open(\"/tmp\", 0, 0);\n%s  }\n%s\n}\n"
      (String.concat ""
         (List.mapi (fun k c -> Printf.sprintf "    if (%s) { return %d; }\n" c (k + 1)) calls))
      tail
  in
  let install program src =
    let img = Minic.Driver.compile_exn ~personality:Personality.linux src in
    match Asc_core.Installer.install ~key ~personality:Personality.linux ~program img with
    | Ok inst -> inst.Asc_core.Installer.image
    | Error e -> Alcotest.failf "install %s: %s" program e
  in
  (* no syscall: the exec'd image is not installed; it halts with execve's
     result, 0 *)
  let after = Svm.Asm.assemble_exn "_start: halt" in
  let starts_fresh what (m : Svm.Machine.t) img =
    let fresh = Svm.Loader.load img in
    Alcotest.(check bool) (what ^ ": memory equals a fresh load") true
      (Bytes.equal fresh.mem m.mem)
  in
  List.iter
    (fun (what, tail) ->
      let kernel = Kernel.create () in
      ok (Vfs.create_file kernel.Kernel.vfs ~cwd:"/" "/tmp/data" ~contents:"0123456789abcdefXYZ");
      ok (Vfs.symlink kernel.Kernel.vfs ~cwd:"/" ~target:"/tmp/data" ~linkpath:"/tmp/link");
      Kernel.install_binary kernel ~path:"/bin/after" after;
      Kernel.set_monitor kernel
        (Some
           (Asc_core.Checker.monitor_with ~kernel ~key
              (Some (Asc_core.Checker.fastpath ~key kernel))));
      let p = Kernel.spawn kernel ~program:what (install what (guest tail)) in
      let mmap_base = p.mmap_next in
      check_exit (what ^ " exits") 0 (Kernel.run kernel p ~max_cycles:100_000_000);
      (match Asc_obs.Metrics.value (Kernel.metrics kernel) "cfpre.hits" with
       | Some n when n > 0 -> ()
       | _ -> Alcotest.fail "the fast path never wrote the policy state");
      let m = p.machine in
      if what = "exit" then
        List.iter
          (fun a ->
            match Svm.Machine.read_mem m ~addr:a ~len:16 with
            | Some s when String.exists (fun c -> c <> '\000') s -> ()
            | _ -> Alcotest.failf "nothing written at 0x%x" a)
          (mmap_base :: List.init 9 page)
      else begin
        Alcotest.(check string) "execve reached" "/bin/after" p.program;
        starts_fresh "the exec'd image" m after
      end;
      let mem = m.mem in
      let next = Kernel.spawn kernel ~program:"next" after in
      Alcotest.(check bool) (what ^ ": next runs in its buffer") true (next.machine.mem == mem);
      starts_fresh (what ^ ", next spawn") next.machine after)
    [ ("exit", "  return 0;"); ("execve", "  execve(\"/bin/after\", 0, 0);\n  return 11;") ]

(* --- syscall probe --- *)

(* Random syscall numbers with edge-valued arguments, under both
   personalities and no monitor: whatever the guest asks, [Kernel.run]
   returns a stop and allocates a bounded number of host words. The guest
   loads each call's number and six arguments from a table the test
   writes after spawn, so any int reaches any register, and traps once
   per row. [buf] holds a path and room to write. *)
let probe_calls = 8
let probe_row = 7 * 8

let probe_image =
  Svm.Asm.assemble_exn
    (Printf.sprintf
       {|
_start: movi r9, table
        movi r10, 0
        movi r11, %d
loop:   bge r10, r11, done
        ld r0, [r9+0]
        ld r1, [r9+8]
        ld r2, [r9+16]
        ld r3, [r9+24]
        ld r4, [r9+32]
        ld r5, [r9+40]
        ld r6, [r9+48]
        sys
        addi r9, r9, %d
        addi r10, r10, 1
        jmp loop
done:   halt
        .data
buf:    .asciz "/tmp/probe"
        .space 4096
table:  .space %d
|}
       probe_calls probe_row (probe_calls * probe_row))

let probe_max_cycles = 2_000_000

(* Far above what a run of the probe takes (under a thousand words on
   every seed tried). It bounds the minor heap only: a block too large
   for it, such as a 1 MiB copy of guest memory, is allocated in the
   major heap and not counted. *)
let probe_minor_words = 100_000

type probe = { openbsd : bool; calls : int array list (** number, then six arguments *) }

let gen_probe =
  let open QCheck.Gen in
  let mem = Svm.Machine.default_mem_size in
  let buf = Option.get (Svm.Obj_file.find_symbol probe_image "buf") in
  let edge = oneofl [ 0; -1; 1; 16; max_int; min_int; 1 lsl 32; mem - 1; mem; mem + 1; buf ] in
  let* openbsd = bool in
  let pers = if openbsd then Personality.openbsd else Personality.linux in
  let numbers = List.filter_map (Personality.number_of pers) Syscall.all in
  let number =
    frequency
      [ (6, oneofl numbers);
        (1, oneofl [ 0; -1; max_int; min_int; 1 lsl 32 ]);
        (1, map (fun n -> n + (1 lsl 32)) (oneofl numbers));
        (2, int_bound 400) ]
  in
  let call = map2 (fun n args -> Array.of_list (n :: args)) number (list_repeat 6 edge) in
  let* calls = list_size (int_range 1 probe_calls) call in
  return { openbsd; calls }

let print_probe p =
  Printf.sprintf "%s: %s"
    (if p.openbsd then "openbsd" else "linux")
    (String.concat "; "
       (List.map
          (fun c -> String.concat " " (Array.to_list (Array.map string_of_int c)))
          p.calls))

let prop_syscall_probe =
  QCheck.Test.make ~name:"any syscall with edge arguments returns a stop" ~count:200
    (QCheck.make ~print:print_probe gen_probe) (fun p ->
      let personality = if p.openbsd then Personality.openbsd else Personality.linux in
      let kernel = Kernel.create ~personality () in
      let proc = Kernel.spawn kernel ~program:"probe" probe_image in
      let table = Option.get (Svm.Obj_file.find_symbol probe_image "table") in
      List.iteri
        (fun i call ->
          Array.iteri
            (fun j v ->
              assert (Svm.Machine.write_word proc.machine (table + (i * probe_row) + (j * 8)) v))
            call)
        p.calls;
      let before = Gc.minor_words () in
      (match Kernel.run kernel proc ~max_cycles:probe_max_cycles with
       | _ -> ()
       | exception e -> QCheck.Test.fail_reportf "Kernel.run raised %s" (Printexc.to_string e));
      let words = int_of_float (Gc.minor_words () -. before) in
      if words > probe_minor_words then
        QCheck.Test.fail_reportf "%d minor words in one run" words;
      true)

let suite_vfs =
  [ Alcotest.test_case "basic files" `Quick test_vfs_basic;
    Alcotest.test_case "relative paths" `Quick test_vfs_relative_paths;
    Alcotest.test_case "symlinks + normalization" `Quick test_vfs_symlinks;
    Alcotest.test_case "symlink loop -> ELOOP" `Quick test_vfs_symlink_loop;
    Alcotest.test_case "mkdir/rmdir/rename/readdir" `Quick test_vfs_mutations;
    Alcotest.test_case "read_at/write_at" `Quick test_vfs_read_write_at;
    QCheck_alcotest.to_alcotest prop_vfs_write_read_roundtrip ]

let suite_pers =
  [ Alcotest.test_case "tables roundtrip + divergences" `Quick test_personality_tables;
    Alcotest.test_case "syscall names" `Quick test_syscall_names;
    Alcotest.test_case "sem_of outside the table is None" `Quick test_sem_of_outside_table ]

let suite_kernel =
  [ Alcotest.test_case "hello stdout" `Quick test_hello_stdout;
    Alcotest.test_case "open/read/close" `Quick test_open_read_close;
    Alcotest.test_case "write creates file" `Quick test_write_creates_file;
    Alcotest.test_case "stdin read" `Quick test_stdin_read;
    Alcotest.test_case "brk + getpid" `Quick test_brk_and_getpid;
    Alcotest.test_case "bad pointer -> errno" `Quick test_bad_pointer_efault;
    Alcotest.test_case "read near max_int -> EFAULT" `Quick test_read_efault_near_max_int;
    Alcotest.test_case "unknown syscall -> ENOSYS" `Quick test_unknown_syscall_enosys;
    Alcotest.test_case "execve replaces image" `Quick test_execve_replaces_image;
    Alcotest.test_case "execve rejects an image outside memory" `Quick
      test_execve_rejects_image_outside_memory;
    Alcotest.test_case "spawn reuses exited memory" `Quick test_spawn_reuses_exited_memory;
    Alcotest.test_case "track names only when traced" `Quick test_track_names_only_when_traced;
    Alcotest.test_case "monitor can deny" `Quick test_monitor_deny;
    Alcotest.test_case "violation audit entry" `Quick test_violation_entry;
    Alcotest.test_case "deny words flat in trace history" `Quick test_deny_words_flat;
    Alcotest.test_case "violation audit line" `Quick test_violation_audit_line;
    QCheck_alcotest.to_alcotest qcheck_audit_json_envelope;
    QCheck_alcotest.to_alcotest qcheck_violation_json_fields;
    Alcotest.test_case "per-kernel vm counters isolated" `Quick test_vm_counters_isolated;
    Alcotest.test_case "tracing" `Quick test_tracing;
    Alcotest.test_case "trace ring cap" `Quick test_trace_ring_cap;
    Alcotest.test_case "audit ring cap" `Quick test_audit_ring_cap;
    Alcotest.test_case "openbsd __syscall -> mmap" `Quick test_openbsd_indirect_mmap;
    Alcotest.test_case "getdirentries" `Quick test_getdirentries;
    Alcotest.test_case "readlink of a negative length -> EINVAL" `Quick
      test_readlink_negative_length;
    Alcotest.test_case "getdirentries of a negative length -> EINVAL" `Quick
      test_getdirentries_negative_length;
    Alcotest.test_case "mmap of a huge length -> ENOMEM" `Quick test_mmap_huge_length_enomem;
    Alcotest.test_case "write at max_int - 10 -> EFBIG" `Quick test_write_efbig_near_max_int;
    Alcotest.test_case "write at max_int -> EFBIG" `Quick test_write_efbig_at_max_int;
    Alcotest.test_case "write at 256 MiB -> EFBIG" `Quick test_write_efbig_at_256_mib;
    Alcotest.test_case "write to a closed descriptor copies nothing" `Quick
      test_write_closed_fd_copies_nothing;
    Alcotest.test_case "failed spawn keeps the parked buffer" `Quick
      test_failed_spawn_keeps_parked_buffer;
    Alcotest.test_case "library bss past memory refused" `Quick test_library_bss_past_memory;
    Alcotest.test_case "syscall writes leave nothing behind" `Quick
      test_syscall_writes_leave_nothing;
    Alcotest.test_case "consecutive traced calls keep distinct args" `Quick
      test_traced_args_distinct;
    QCheck_alcotest.to_alcotest prop_syscall_probe ]

let () =
  Alcotest.run "oskernel"
    [ ("vfs", suite_vfs); ("personality", suite_pers); ("kernel", suite_kernel) ]
