type t = {
  os_name : string;
  direct : (Syscall.sem * int) list;     (* sem <-> trap number *)
  by_number : Syscall.sem option array;  (* trap number -> sem, for [sem_of] *)
}

(* [sem_of] runs on every trap, so the reverse table is an array indexed
   by number whose [Some]s are built here, once. [indirect_only] lists the
   numbers reachable via Indirect only. Filling those first and each list
   back to front keeps a list walk's first match: a direct number wins,
   and within a list the earlier entry. *)
let make ~os_name ~direct ~indirect_only =
  let top = List.fold_left (fun acc (_, n) -> max acc n) (-1) (direct @ indirect_only) in
  let by_number = Array.make (top + 1) None in
  List.iter (fun (s, n) -> by_number.(n) <- Some s) (List.rev indirect_only @ List.rev direct);
  { os_name; direct; by_number }

let os_name t = t.os_name

(* Numbers loosely follow the real tables; only distinctness and stability
   matter to the reproduction. *)
let linux =
  make ~os_name:"Linux(sim)"
    ~direct:
      [ (Syscall.Exit, 1); (Syscall.Read, 3); (Syscall.Write, 4); (Syscall.Open, 5);
        (Syscall.Close, 6); (Syscall.Unlink, 10); (Syscall.Execve, 11); (Syscall.Chdir, 12);
        (Syscall.Time, 13); (Syscall.Chmod, 15); (Syscall.Lseek, 19); (Syscall.Getpid, 20);
        (Syscall.Getuid, 24); (Syscall.Access, 33); (Syscall.Kill, 37); (Syscall.Rename, 38);
        (Syscall.Mkdir, 39); (Syscall.Rmdir, 40); (Syscall.Dup, 41); (Syscall.Brk, 45);
        (Syscall.Getgid, 47); (Syscall.Geteuid, 49); (Syscall.Ioctl, 54); (Syscall.Fcntl, 55);
        (Syscall.Dup2, 63); (Syscall.Getppid, 64); (Syscall.Sigaction, 67);
        (Syscall.Gettimeofday, 78); (Syscall.Symlink, 83); (Syscall.Readlink, 85);
        (Syscall.Mmap, 90); (Syscall.Munmap, 91); (Syscall.Fstatfs, 100); (Syscall.Stat, 106);
        (Syscall.Fstat, 108); (Syscall.Uname, 122); (Syscall.Getdirentries, 141);
        (Syscall.Select, 142); (Syscall.Writev, 146); (Syscall.Nanosleep, 162);
        (Syscall.Getcwd, 183); (Syscall.Sysconf, 199); (Syscall.Madvise, 219);
        (Syscall.Socket, 359); (Syscall.Bind, 361); (Syscall.Connect, 362);
        (Syscall.Sendto, 369); (Syscall.Recvfrom, 371) ]
    ~indirect_only:[]

let openbsd =
  make ~os_name:"OpenBSD(sim)"
    ~direct:
      [ (Syscall.Exit, 1); (Syscall.Read, 3); (Syscall.Write, 4); (Syscall.Open, 5);
        (Syscall.Close, 6); (Syscall.Unlink, 10); (Syscall.Chdir, 12); (Syscall.Chmod, 15);
        (Syscall.Brk, 17); (Syscall.Getpid, 20); (Syscall.Getuid, 24); (Syscall.Geteuid, 25);
        (Syscall.Recvfrom, 29); (Syscall.Access, 33); (Syscall.Kill, 37); (Syscall.Stat, 38);
        (Syscall.Getppid, 39); (Syscall.Dup, 41); (Syscall.Getgid, 43); (Syscall.Sigaction, 46);
        (Syscall.Ioctl, 54); (Syscall.Symlink, 57); (Syscall.Readlink, 58);
        (Syscall.Execve, 59); (Syscall.Fstatfs, 64); (Syscall.Munmap, 73);
        (Syscall.Madvise, 75); (Syscall.Dup2, 90); (Syscall.Fcntl, 92); (Syscall.Select, 93);
        (Syscall.Socket, 97); (Syscall.Connect, 98); (Syscall.Bind, 104);
        (Syscall.Gettimeofday, 116); (Syscall.Writev, 121); (Syscall.Rename, 128);
        (Syscall.Sendto, 133); (Syscall.Mkdir, 136); (Syscall.Rmdir, 137);
        (Syscall.Uname, 164); (Syscall.Fstat, 189); (Syscall.Indirect, 198);
        (Syscall.Lseek, 199); (Syscall.Sysconf, 201); (Syscall.Sysctl, 202);
        (Syscall.Nanosleep, 240); (Syscall.Issetugid, 253); (Syscall.Getcwd, 304);
        (Syscall.Getdirentries, 312); (Syscall.Time, 337) ]
    ~indirect_only:[ (Syscall.Mmap, 197) ]

let number_of t sem = List.assoc_opt sem t.direct

let sem_of t n = if n >= 0 && n < Array.length t.by_number then t.by_number.(n) else None

let indirect_target t n =
  if not (List.mem_assoc Syscall.Indirect t.direct) then None else sem_of t n
