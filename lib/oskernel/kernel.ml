open Svm

type verdict =
  | Allow
  | Deny of string
  | Deny_violation of Violation.t

type monitor = {
  monitor_name : string;
  pre_syscall : Process.t -> site:int -> number:int -> verdict;
  post_syscall : Process.t -> site:int -> sem:Syscall.sem option -> result:int -> unit;
}

let no_post _ ~site:_ ~sem:_ ~result:_ = ()

let compose_monitors name monitors =
  { monitor_name = name;
    pre_syscall =
      (fun p ~site ~number ->
        let rec go = function
          | [] -> Allow
          | m :: rest ->
            (match m.pre_syscall p ~site ~number with
             | Allow -> go rest
             | (Deny _ | Deny_violation _) as d -> d)
        in
        go monitors);
    post_syscall =
      (fun p ~site ~sem ~result ->
        List.iter (fun m -> m.post_syscall p ~site ~sem ~result) monitors) }

(* Process lifecycle notifications for caches keyed by pid: spawn and
   execve (re)establish which image a pid runs, and teardown frees the pid
   for reuse, so per-pid state derived from the old image must be
   dropped. *)
type lifecycle =
  | Proc_spawn of { pid : int }
  | Proc_exec of { pid : int }
  | Proc_exit of { pid : int }

type trace_entry = {
  t_sem : Syscall.sem option;
  t_number : int;
  t_site : int;
  t_args : int array;
  t_result : int;
}

type audit_entry =
  | Denied of { pid : int; program : string; site : int; number : int; reason : string }
  | Execve of { pid : int; program : string; path : string }
  | Violation of { pid : int; program : string; violation : Violation.t }

let audit_to_string = function
  | Denied { pid; program; site; number; reason } ->
    Printf.sprintf "pid %d DENIED %s at site 0x%x number %d: %s" pid program site number reason
  | Execve { pid; program = _; path } -> Printf.sprintf "pid %d execve %s" pid path
  | Violation { pid; program; violation } ->
    Printf.sprintf "pid %d VIOLATION %s %s" pid program (Violation.to_string violation)

(* Every variant carries the same envelope — "kind", "pid", "program" — and
   call-shaped variants share the "site"/"number" field names, so consumers
   can dispatch on "kind" without per-variant null checks. *)
let audit_to_json entry =
  let open Asc_obs.Json in
  let envelope kind pid program rest = Obj (("kind", Str kind) :: ("pid", Int pid) :: ("program", Str program) :: rest) in
  match entry with
  | Denied { pid; program; site; number; reason } ->
    envelope "denied" pid program
      [ ("site", Int site); ("number", Int number); ("reason", Str reason) ]
  | Execve { pid; program; path } -> envelope "execve" pid program [ ("path", Str path) ]
  | Violation { pid; program; violation } ->
    envelope "violation" pid program (Violation.json_fields violation)

type t = {
  vfs : Vfs.t;
  pers : Personality.t;
  obs : Asc_obs.Metrics.registry;
  telemetry : Asc_obs.Telemetry.t;
  spans : Asc_obs.Trace.t;
  trace : trace_entry Asc_obs.Ring.t;
  audit : audit_entry Asc_obs.Ring.t;
  mutable next_pid : int;
  mutable monitor : monitor option;
  mutable tracing : bool;
  mutable lifecycle_hooks : (lifecycle -> unit) list;
  mutable spare : Machine.t option;
  ctr_syscalls : Asc_obs.Metrics.counter;
  ctr_allowed : Asc_obs.Metrics.counter;
  ctr_denied : Asc_obs.Metrics.counter;
  ctr_vm_instrs : Asc_obs.Metrics.counter;
  ctr_vm_cycles : Asc_obs.Metrics.counter;
  ctr_host_minor_words : Asc_obs.Metrics.counter;
  hist_syscall_cycles : Asc_obs.Metrics.histogram;
  sem_counters : Asc_obs.Metrics.counter option array;  (* by [Syscall.index] *)
}

let create ?(personality = Personality.linux) ?obs ?(trace_capacity = 65536)
    ?(audit_capacity = 4096) () =
  let vfs = Vfs.create () in
  List.iter (Vfs.mkdir_p vfs) [ "/tmp"; "/etc"; "/bin"; "/dev"; "/home" ];
  let obs = match obs with Some r -> r | None -> Asc_obs.Metrics.create () in
  let spans = Asc_obs.Trace.create () in
  Asc_obs.Trace.name_process spans "asc-kernel";
  { vfs;
    pers = personality;
    obs;
    (* always-on: the fleet telemetry plane shares the kernel's lifetime
       so per-pid shards track process lifecycle exactly *)
    telemetry = Asc_obs.Telemetry.create ();
    spans;
    trace = Asc_obs.Ring.create ~capacity:trace_capacity;
    audit = Asc_obs.Ring.create ~capacity:audit_capacity;
    next_pid = 1;
    monitor = None;
    tracing = false;
    lifecycle_hooks = [];
    spare = None;
    ctr_syscalls =
      Asc_obs.Metrics.counter obs "kernel.syscalls.total" ~help:"traps taken (incl. denied)";
    ctr_allowed = Asc_obs.Metrics.counter obs "kernel.syscalls.allowed";
    ctr_denied = Asc_obs.Metrics.counter obs "kernel.syscalls.denied";
    ctr_vm_instrs =
      Asc_obs.Metrics.counter obs "svm.instructions"
        ~help:"instructions retired by this kernel's processes";
    ctr_vm_cycles =
      Asc_obs.Metrics.counter obs "svm.cycles" ~help:"modeled cycles (app + kernel charges)";
    ctr_host_minor_words =
      Asc_obs.Metrics.counter obs "kernel.host_minor_words"
        ~help:"host minor words allocated inside Machine.run (interpreter + checker)";
    hist_syscall_cycles =
      Asc_obs.Metrics.histogram obs "kernel.syscall_cycles"
        ~help:"modeled cycles per dispatched syscall (trap + check + work)";
    sem_counters = Array.make Syscall.count None }

let metrics t = t.obs
let telemetry t = t.telemetry
let spans t = t.spans

(* Registered at the sem's first allowed call, so the registry lists
   only the sems a kernel served; looked up without hashing or an
   option. *)
let sem_counter t sem =
  match t.sem_counters.(Syscall.index sem) with
  | Some c -> c
  | None ->
    let c = Asc_obs.Metrics.counter t.obs ("kernel.syscall." ^ Syscall.name sem) in
    t.sem_counters.(Syscall.index sem) <- Some c;
    c

let set_monitor t m = t.monitor <- m

let add_lifecycle_hook t f = t.lifecycle_hooks <- t.lifecycle_hooks @ [ f ]
let lifecycle_event t ev = List.iter (fun f -> f ev) t.lifecycle_hooks

let install_binary t ~path img =
  match Vfs.create_file t.vfs ~cwd:"/" path ~contents:(Obj_file.serialize img) with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "install_binary %s: %s" path (Errno.name e))

let extent (img : Obj_file.t) =
  List.fold_left
    (fun (lo, hi) (s : Obj_file.section) ->
      (min lo s.sec_addr, max hi (s.sec_addr + s.sec_size)))
    (max_int, 0) img.sections

let spawn t ?(stdin = "") ?(libs = []) ~program img =
  (* everything that can refuse the spawn runs before the parked buffer is
     taken, so a failed spawn leaves it for the next one *)
  let mem_size = Machine.default_mem_size in
  Loader.check ~mem_size img;
  let ranges =
    List.fold_left
      (fun ranges (lib : Obj_file.t) ->
        Loader.check ~mem_size lib;
        let lo, hi = extent lib in
        List.iter
          (fun (l, h) ->
            if lo < h && l < hi then
              invalid_arg
                (Printf.sprintf "Kernel.spawn: library [0x%x,0x%x) overlaps [0x%x,0x%x)" lo hi
                   l h))
          ranges;
        (lo, hi) :: ranges)
      [ extent img ] libs
  in
  (* take over the memory of the last process that exited on this kernel:
     zeroing the few pages it wrote is far cheaper than allocating 4 MiB
     next to a live heap, where most of the cost is the major-GC work the
     allocation triggers *)
  let machine =
    match t.spare with
    | None -> Machine.create ~mem_size
    | Some old ->
      t.spare <- None;
      Machine.take_over old
  in
  Loader.load_into machine img;
  (* map shared libraries at their fixed bases; checked above, so every
     write succeeds *)
  List.iter
    (fun (lib : Obj_file.t) ->
      List.iter
        (fun (s : Obj_file.section) ->
          match s.sec_kind with
          | Obj_file.Bss -> ()
          | Obj_file.Text | Obj_file.Rodata | Obj_file.Data ->
            ignore (Machine.write_mem machine ~addr:s.sec_addr s.sec_payload))
        lib.sections)
    libs;
  (* the heap starts above everything mapped *)
  let top = List.fold_left (fun acc (_, hi) -> max acc hi) 0 ranges in
  let heap_start = (top + Svm.Asm.page_size - 1) / Svm.Asm.page_size * Svm.Asm.page_size in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  (* the pid's telemetry shard exists from the first instruction on, so
     monitored calls never race shard creation on the trap path *)
  ignore (Asc_obs.Telemetry.shard t.telemetry ~pid);
  let proc = Process.create ~pid ~program ~machine ~heap_start in
  proc.Process.stdin <- stdin;
  lifecycle_event t (Proc_spawn { pid });
  proc

(* ----- syscall implementation ----- *)

type outcome =
  | Ret of int
  | Exited of int

let err e = Ret (-Errno.code e)
let lift_unit = function Ok () -> 0 | Error e -> -Errno.code e

let charge (m : Machine.t) n = m.cycles <- m.cycles + n

let max_io = 1 lsl 20

(* Flags shared with the MiniC libc. *)
let o_wronly = 1
let o_rdwr = 2
let o_creat = 64
let o_trunc = 512
let o_append = 1024

let cstring m addr = Machine.read_cstring m ~addr ~max:4096

let sys_open t (p : Process.t) path flags =
  let cwd = p.cwd in
  match Vfs.normalize t.vfs ~cwd path with
  | Error e -> Ret (-Errno.code e)
  | Ok canon ->
    let exists = Vfs.exists t.vfs ~cwd:"/" canon in
    if Vfs.is_dir t.vfs ~cwd:"/" canon then begin
      if flags land (o_wronly lor o_rdwr) <> 0 then err Errno.EISDIR
      else Ret (Process.fresh_fd p (Process.Dir { path = canon; consumed = false }))
    end
    else if (not exists) && flags land o_creat = 0 then err Errno.ENOENT
    else begin
      let create_or_trunc =
        ((not exists) && flags land o_creat <> 0) || flags land o_trunc <> 0
      in
      let r =
        if create_or_trunc then Vfs.create_file t.vfs ~cwd:"/" canon ~contents:""
        else Ok ()
      in
      match r with
      | Error e -> Ret (-Errno.code e)
      | Ok () ->
        let append = flags land o_append <> 0 in
        let pos =
          if append then match Vfs.file_size t.vfs ~cwd:"/" canon with Ok n -> n | Error _ -> 0
          else 0
        in
        Ret (Process.fresh_fd p (Process.File { path = canon; pos; append }))
    end

let sys_read t (p : Process.t) fd buf len =
  if len < 0 then err Errno.EINVAL
  else begin
    let len = min len max_io in
    let m = p.machine in
    let deliver data =
      if Machine.write_mem m ~addr:buf data then begin
        charge m (Cost_model.copy_cost (String.length data));
        Ret (String.length data)
      end
      else err Errno.EFAULT
    in
    match Process.fd p fd with
    | None -> err Errno.EBADF
    | Some Process.Console_in ->
      let avail = String.length p.stdin - p.stdin_pos in
      let n = min len avail in
      let data = String.sub p.stdin p.stdin_pos n in
      p.stdin_pos <- p.stdin_pos + n;
      deliver data
    | Some (Process.File f) ->
      (match Vfs.read_at t.vfs ~cwd:"/" f.path ~pos:f.pos ~len with
       | Error e -> Ret (-Errno.code e)
       | Ok data ->
         f.pos <- f.pos + String.length data;
         deliver data)
    | Some (Process.Dir _) -> err Errno.EISDIR
    | Some (Process.Sock _) -> Ret 0
    | Some (Process.Console_out | Process.Console_err) -> err Errno.EBADF
  end

(* [kind] is the descriptor the caller looked up before it copied [data]
   out of guest memory. *)
let write_payload t (p : Process.t) kind data =
  let n = String.length data in
  let m = p.machine in
  charge m (Cost_model.copy_cost n + (Cost_model.write_buffer_per_byte * n));
  match kind with
  | Process.Console_out ->
    Buffer.add_string p.stdout data;
    Ret n
  | Process.Console_err ->
    Buffer.add_string p.stderr data;
    Ret n
  | Process.File f ->
    (match Vfs.write_at t.vfs ~cwd:"/" f.path ~pos:f.pos data with
     | Error e -> Ret (-Errno.code e)
     | Ok written ->
       f.pos <- f.pos + written;
       Ret written)
  | Process.Sock s ->
    s.sent <- s.sent + n;
    Ret n
  | Process.Dir _ -> err Errno.EISDIR
  | Process.Console_in -> err Errno.EBADF

(* A write to a closed, console-in or directory descriptor fails before
   its payload is copied out of guest memory, so it copies and charges
   nothing, and a bad descriptor wins over a bad buffer (as in Linux). *)
let refused_write = function
  | Some (Process.Dir _) -> err Errno.EISDIR
  | _ -> err Errno.EBADF

let sys_write t (p : Process.t) fd buf len =
  if len < 0 then err Errno.EINVAL
  else
    match Process.fd p fd with
    | (None | Some (Process.Console_in | Process.Dir _)) as target -> refused_write target
    | Some kind ->
      (match Machine.read_mem p.machine ~addr:buf ~len:(min len max_io) with
       | None -> err Errno.EFAULT
       | Some data -> write_payload t p kind data)

let sys_writev t (p : Process.t) fd iov cnt =
  if cnt < 0 || cnt > 64 then err Errno.EINVAL
  else
    match Process.fd p fd with
    | (None | Some (Process.Console_in | Process.Dir _)) as target -> refused_write target
    | Some kind ->
      let m = p.machine in
      let rec gather acc i =
        if i >= cnt then Some (String.concat "" (List.rev acc))
        else
          match
            (Machine.read_word m (iov + (16 * i)), Machine.read_word m (iov + (16 * i) + 8))
          with
          | Some base, Some len when len >= 0 && len <= max_io ->
            (match Machine.read_mem m ~addr:base ~len with
             | Some d -> gather (d :: acc) (i + 1)
             | None -> None)
          | _ -> None
      in
      (match gather [] 0 with
       | None -> err Errno.EFAULT
       | Some data -> write_payload t p kind data)

let sys_lseek t (p : Process.t) fd off whence =
  match Process.fd p fd with
  | Some (Process.File f) ->
    let base =
      match whence with
      | 0 -> 0
      | 1 -> f.pos
      | 2 -> (match Vfs.file_size t.vfs ~cwd:"/" f.path with Ok n -> n | Error _ -> -1)
      | _ -> -1
    in
    if base < 0 || base + off < 0 then err Errno.EINVAL
    else begin
      f.pos <- base + off;
      Ret f.pos
    end
  | Some _ -> err Errno.EINVAL
  | None -> err Errno.EBADF

let sys_getdirentries t (p : Process.t) fd buf nbytes =
  match Process.fd p fd with
  | _ when nbytes < 0 -> err Errno.EINVAL
  | Some (Process.Dir d) ->
    if d.consumed then Ret 0
    else begin
      match Vfs.readdir t.vfs ~cwd:"/" d.path with
      | Error e -> Ret (-Errno.code e)
      | Ok names ->
        d.consumed <- true;
        let serialized = String.concat "" (List.map (fun n -> n ^ "\000") names) in
        let out =
          if String.length serialized > nbytes then String.sub serialized 0 nbytes
          else serialized
        in
        if Machine.write_mem p.machine ~addr:buf out then begin
          charge p.machine (Cost_model.copy_cost (String.length out));
          Ret (String.length out)
        end
        else err Errno.EFAULT
    end
  | Some _ -> err Errno.ENOTDIR
  | None -> err Errno.EBADF

let sys_stat t (p : Process.t) path buf =
  match Vfs.stat t.vfs ~cwd:p.cwd path with
  | Error e -> Ret (-Errno.code e)
  | Ok st ->
    let kind = match st.Vfs.st_kind with `File -> 0 | `Dir -> 1 | `Symlink -> 2 in
    if Machine.write_word p.machine buf st.Vfs.st_size && Machine.write_word p.machine (buf + 8) kind
    then Ret 0
    else err Errno.EFAULT

let sys_fstat t (p : Process.t) fd buf =
  let put size kind =
    if Machine.write_word p.machine buf size && Machine.write_word p.machine (buf + 8) kind then
      Ret 0
    else err Errno.EFAULT
  in
  match Process.fd p fd with
  | None -> err Errno.EBADF
  | Some (Process.File f) ->
    (match Vfs.file_size t.vfs ~cwd:"/" f.path with
     | Ok n -> put n 0
     | Error e -> Ret (-Errno.code e))
  | Some (Process.Dir _) -> put 0 1
  | Some (Process.Console_in | Process.Console_out | Process.Console_err) -> put 0 3
  | Some (Process.Sock _) -> put 0 4

let sys_execve t (p : Process.t) path =
  let caller = p.program in
  match Vfs.normalize t.vfs ~cwd:p.cwd path with
  | Error e -> Ret (-Errno.code e)
  | Ok canon ->
    (match Vfs.read_file t.vfs ~cwd:"/" canon with
     | Error e -> Ret (-Errno.code e)
     | Ok contents ->
       (match Obj_file.parse contents with
        | Error _ -> err Errno.EINVAL
        | Ok img ->
          let m = p.machine in
          (match Loader.load_into m img with
           | exception Invalid_argument _ ->
             (* every section is checked before memory is touched, so an
                image that does not fit leaves the caller as it was *)
             err Errno.EINVAL
           | () ->
             charge m 50_000;
             Process.reset_for_exec p ~program:canon ~heap_start:(Loader.initial_brk img);
             Asc_obs.Ring.push t.audit (Execve { pid = p.pid; program = caller; path = canon });
             lifecycle_event t (Proc_exec { pid = p.pid });
             Ret 0)))

let path_arg (p : Process.t) addr k =
  match cstring p.machine addr with
  | None -> err Errno.EFAULT
  | Some s -> k s

(* Dispatch one semantic operation. *)
let exec_sem t (p : Process.t) sem (args : int array) =
  let m = p.machine in
  match (sem : Syscall.sem) with
  | Syscall.Exit -> Exited args.(0)
  | Syscall.Open -> path_arg p args.(0) (fun path -> sys_open t p path args.(1))
  | Syscall.Close ->
    if Process.close_fd p args.(0) then Ret 0 else err Errno.EBADF
  | Syscall.Read -> sys_read t p args.(0) args.(1) args.(2)
  | Syscall.Write -> sys_write t p args.(0) args.(1) args.(2)
  | Syscall.Lseek -> sys_lseek t p args.(0) args.(1) args.(2)
  | Syscall.Brk ->
    let addr = args.(0) in
    if addr = 0 then Ret p.brk_addr
    else if addr >= p.heap_start && addr < p.mmap_next then begin
      p.brk_addr <- addr;
      Ret addr
    end
    else err Errno.ENOMEM
  | Syscall.Mmap ->
    let len = args.(1) in
    let addr = p.mmap_next in
    let room = Machine.stack_top p.machine - 65536 - addr in
    (* bound [len] before rounding it up to pages: the rounding overflows
       for a length near [max_int] *)
    if len <= 0 then err Errno.EINVAL
    else if len > room then err Errno.ENOMEM
    else begin
      let aligned = (len + 4095) / 4096 * 4096 in
      if aligned > room then err Errno.ENOMEM
      else begin
        p.mmap_next <- addr + aligned;
        (* file-backed mapping: copy contents when fd argument names a file *)
        (match Process.fd p args.(4) with
         | Some (Process.File f) ->
           (match Vfs.read_file t.vfs ~cwd:"/" f.path with
            | Ok data ->
              let n = min (String.length data) len in
              ignore (Machine.write_mem m ~addr (String.sub data 0 n))
            | Error _ -> ())
         | Some _ | None -> ());
        Ret addr
      end
    end
  | Syscall.Munmap -> Ret 0
  | Syscall.Madvise -> Ret 0
  | Syscall.Getpid -> Ret p.pid
  | Syscall.Getppid -> Ret 1
  | Syscall.Getuid | Syscall.Geteuid -> Ret 1000
  | Syscall.Getgid -> Ret 100
  | Syscall.Issetugid -> Ret 0
  | Syscall.Gettimeofday ->
    let usec_total = m.cycles / 1000 in
    if Machine.write_word m args.(0) (usec_total / 1_000_000)
       && Machine.write_word m (args.(0) + 8) (usec_total mod 1_000_000)
    then Ret 0
    else err Errno.EFAULT
  | Syscall.Time -> Ret (m.cycles / 1_000_000_000)
  | Syscall.Nanosleep ->
    charge m 10_000;
    Ret 0
  | Syscall.Kill -> Ret 0
  | Syscall.Sigaction -> Ret 0
  | Syscall.Uname ->
    let s = Personality.os_name t.pers ^ "\000" in
    if Machine.write_mem m ~addr:args.(0) s then Ret 0 else err Errno.EFAULT
  | Syscall.Sysconf -> Ret 4096
  | Syscall.Sysctl -> Ret 0
  | Syscall.Fstatfs ->
    if Machine.write_word m args.(1) 4096 && Machine.write_word m (args.(1) + 8) 0 then Ret 0
    else err Errno.EFAULT
  | Syscall.Mkdir -> path_arg p args.(0) (fun s -> Ret (lift_unit (Vfs.mkdir t.vfs ~cwd:p.cwd s)))
  | Syscall.Rmdir -> path_arg p args.(0) (fun s -> Ret (lift_unit (Vfs.rmdir t.vfs ~cwd:p.cwd s)))
  | Syscall.Unlink -> path_arg p args.(0) (fun s -> Ret (lift_unit (Vfs.unlink t.vfs ~cwd:p.cwd s)))
  | Syscall.Readlink when args.(2) < 0 -> err Errno.EINVAL
  | Syscall.Readlink ->
    path_arg p args.(0) (fun s ->
        match Vfs.readlink t.vfs ~cwd:p.cwd s with
        | Error e -> Ret (-Errno.code e)
        | Ok target ->
          let out = if String.length target > args.(2) then String.sub target 0 args.(2) else target in
          if Machine.write_mem m ~addr:args.(1) out then Ret (String.length out)
          else err Errno.EFAULT)
  | Syscall.Symlink ->
    path_arg p args.(0) (fun target ->
        path_arg p args.(1) (fun linkpath ->
            Ret (lift_unit (Vfs.symlink t.vfs ~cwd:p.cwd ~target ~linkpath))))
  | Syscall.Rename ->
    path_arg p args.(0) (fun src ->
        path_arg p args.(1) (fun dst -> Ret (lift_unit (Vfs.rename t.vfs ~cwd:p.cwd ~src ~dst))))
  | Syscall.Stat -> path_arg p args.(0) (fun s -> sys_stat t p s args.(1))
  | Syscall.Fstat -> sys_fstat t p args.(0) args.(1)
  | Syscall.Access ->
    path_arg p args.(0) (fun s ->
        if Vfs.exists t.vfs ~cwd:p.cwd s then Ret 0 else err Errno.ENOENT)
  | Syscall.Chmod ->
    path_arg p args.(0) (fun s ->
        if Vfs.exists t.vfs ~cwd:p.cwd s then Ret 0 else err Errno.ENOENT)
  | Syscall.Chdir ->
    path_arg p args.(0) (fun s ->
        match Vfs.normalize t.vfs ~cwd:p.cwd s with
        | Error e -> Ret (-Errno.code e)
        | Ok canon ->
          if Vfs.is_dir t.vfs ~cwd:"/" canon then begin
            p.cwd <- canon;
            Ret 0
          end
          else err Errno.ENOTDIR)
  | Syscall.Getcwd ->
    let s = p.cwd ^ "\000" in
    if String.length s > args.(1) then err Errno.EINVAL
    else if Machine.write_mem m ~addr:args.(0) s then Ret (String.length s)
    else err Errno.EFAULT
  | Syscall.Dup ->
    (match Process.fd p args.(0) with
     | Some k -> Ret (Process.fresh_fd p k)
     | None -> err Errno.EBADF)
  | Syscall.Dup2 ->
    (match Process.fd p args.(0) with
     | Some k ->
       Hashtbl.replace p.fds args.(1) k;
       Ret args.(1)
     | None -> err Errno.EBADF)
  | Syscall.Fcntl ->
    (match Process.fd p args.(0) with Some _ -> Ret 0 | None -> err Errno.EBADF)
  | Syscall.Ioctl ->
    (match Process.fd p args.(0) with
     | Some (Process.Console_in | Process.Console_out | Process.Console_err) -> Ret 0
     | Some _ -> err Errno.ENOTTY
     | None -> err Errno.EBADF)
  | Syscall.Getdirentries -> sys_getdirentries t p args.(0) args.(1) args.(2)
  | Syscall.Socket -> Ret (Process.fresh_fd p (Process.Sock { sent = 0 }))
  | Syscall.Connect | Syscall.Bind ->
    (match Process.fd p args.(0) with
     | Some (Process.Sock _) -> Ret 0
     | Some _ -> err Errno.EINVAL
     | None -> err Errno.EBADF)
  | Syscall.Sendto -> sys_write t p args.(0) args.(1) args.(2)
  | Syscall.Recvfrom -> Ret 0
  | Syscall.Writev -> sys_writev t p args.(0) args.(1) args.(2)
  | Syscall.Execve -> path_arg p args.(0) (fun s -> sys_execve t p s)
  | Syscall.Select -> Ret 0
  | Syscall.Indirect -> err Errno.EINVAL (* resolved by the dispatcher *)

let sem_name t number sem =
  match sem with
  | Some s -> Syscall.name s
  | None ->
    (match Personality.sem_of t.pers number with
     | Some s -> Syscall.name s
     | None -> Printf.sprintf "syscall#%d" number)

(* A pid's track is named when the kernel records its first span, so a
   process that runs untraced leaves nothing in the span collector. *)
let syscall_span t (p : Process.t) ~args ~name ~ts ~dur =
  if Asc_obs.Trace.track_name t.spans ~track:p.pid = None then
    Asc_obs.Trace.name_track t.spans ~track:p.pid p.program;
  Asc_obs.Trace.complete t.spans ~cat:"syscall" ~track:p.pid ~args ~name ~ts ~dur ()

(* The span of a denied call; only a deny calls this. *)
let deny_span t (p : Process.t) ~site ~number ~ts ~reason ~step =
  if t.tracing then
    syscall_span t p
      ~args:
        ([ ("site", Asc_obs.Json.Int site);
           ("number", Asc_obs.Json.Int number);
           ("verdict", Asc_obs.Json.Str "deny");
           ("reason", Asc_obs.Json.Str reason) ]
        @ match step with None -> [] | Some s -> [ ("step", Asc_obs.Json.Str s) ])
      ~name:(sem_name t number None) ~ts ~dur:(p.machine.Machine.cycles - ts)

let run t (p : Process.t) ~max_cycles =
  (* one argument array per run, refilled by every trap: nothing keeps it
     past the trap except a trace entry, which takes a copy *)
  let args = Array.make 6 0 in
  let on_sys (m : Machine.t) =
    let site = m.pc - Isa.instr_size in
    let number = m.regs.(0) in
    Array.blit m.regs 1 args 0 6;
    let ts0 = m.cycles in
    Asc_obs.Metrics.inc t.ctr_syscalls;
    charge m (Cost_model.trap_entry + Cost_model.syscall_dispatch);
    let verdict =
      match t.monitor with
      | None -> Allow
      | Some mon -> mon.pre_syscall p ~site ~number
    in
    match verdict with
    | Deny reason ->
      Asc_obs.Metrics.inc t.ctr_denied;
      Asc_obs.Ring.push t.audit (Denied { pid = p.pid; program = p.program; site; number; reason });
      deny_span t p ~site ~number ~ts:ts0 ~reason ~step:None;
      Machine.Sys_kill reason
    | Deny_violation v ->
      Asc_obs.Metrics.inc t.ctr_denied;
      (* the kernel, not the monitor, is authoritative for where the trap
         came from and what was asked *)
      let v =
        { v with
          Violation.v_site = site;
          v_number = number;
          v_sem =
            (match v.Violation.v_sem with
             | Some _ as s -> s
             | None -> Option.map Syscall.name (Personality.sem_of t.pers number)) }
      in
      Asc_obs.Ring.push t.audit (Violation { pid = p.pid; program = p.program; violation = v });
      deny_span t p ~site ~number ~ts:ts0 ~reason:v.Violation.v_reason
        ~step:(Some (Violation.step_name v.Violation.v_step));
      Machine.Sys_kill v.Violation.v_reason
    | Allow ->
      Asc_obs.Metrics.inc t.ctr_allowed;
      (* resolve semantics, following the OpenBSD-style indirect call *)
      let sem, eff_args =
        match Personality.sem_of t.pers number with
        | Some Syscall.Indirect ->
          (match Personality.indirect_target t.pers args.(0) with
           | Some s -> (Some s, Array.init 6 (fun i -> if i < 5 then args.(i + 1) else 0))
           | None -> (None, args))
        | other -> (other, args)
      in
      (match sem with Some s -> Asc_obs.Metrics.inc (sem_counter t s) | None -> ());
      let outcome =
        match sem with
        | None -> Ret (-Errno.code Errno.ENOSYS)
        | Some s -> exec_sem t p s eff_args
      in
      let result = match outcome with Ret v -> v | Exited status -> status in
      Asc_obs.Metrics.observe t.hist_syscall_cycles (m.cycles - ts0);
      if t.tracing then begin
        Asc_obs.Ring.push t.trace
          { t_sem = sem;
            t_number = number;
            t_site = site;
            t_args = Array.copy args;
            t_result = result };
        syscall_span t p
          ~args:
            [ ("site", Asc_obs.Json.Int site);
              ("number", Asc_obs.Json.Int number);
              ("result", Asc_obs.Json.Int result) ]
          ~name:(sem_name t number sem) ~ts:ts0 ~dur:(m.cycles - ts0)
      end;
      (match t.monitor with
       | Some mon -> mon.post_syscall p ~site ~sem ~result
       | None -> ());
      (match outcome with
       | Exited status ->
         m.stopped <- Some (Machine.Halted status);
         Machine.Sys_continue
       | Ret v ->
         m.regs.(0) <- v;
         Machine.Sys_continue)
  in
  let m = p.machine in
  let start_instrs = m.instrs and start_cycles = m.cycles in
  let start_minor = Asc_obs.Profile.minor_words () in
  let stop = Machine.run m ~on_sys ~max_cycles in
  (* per-kernel mirrors of the machine totals: registries created per
     kernel (the default) never see another run's instructions *)
  Asc_obs.Metrics.add t.ctr_vm_instrs (m.instrs - start_instrs);
  Asc_obs.Metrics.add t.ctr_vm_cycles (m.cycles - start_cycles);
  Asc_obs.Metrics.add t.ctr_host_minor_words (Asc_obs.Profile.minor_words () - start_minor);
  (* terminal stops tear the process down; a cycle-limit stop may resume *)
  (match stop with
   | Machine.Halted _ | Machine.Killed _ | Machine.Faulted _ ->
     lifecycle_event t (Proc_exit { pid = p.pid });
     (* drop the pid's telemetry ledger: its counts stay in the plane's,
        and a reused pid starts with an empty ledger *)
     Asc_obs.Telemetry.retire_pid t.telemetry ~pid:p.pid;
     (* the memory stays readable through [p] until the next spawn takes
        it over; a machine whose memory was already taken (a finished
        process run again) has none to give *)
     if Bytes.length m.mem = Machine.default_mem_size then t.spare <- Some m
   | Machine.Cycle_limit -> ());
  stop

let trace t = Asc_obs.Ring.to_list t.trace

let clear_trace t =
  Asc_obs.Ring.clear t.trace;
  Asc_obs.Trace.clear t.spans

let audit_log t = Asc_obs.Ring.to_list t.audit
let clear_audit t = Asc_obs.Ring.clear t.audit
let syscall_count t = Asc_obs.Metrics.counter_value t.ctr_syscalls
let denied_count t = Asc_obs.Metrics.counter_value t.ctr_denied
let stdout_of (p : Process.t) = Buffer.contents p.stdout
let stderr_of (p : Process.t) = Buffer.contents p.stderr
