(** OS-independent system-call semantics.

    Each simulated OS personality maps its own syscall *numbers* onto these
    shared semantic operations, the way Linux and OpenBSD assign different
    numbers (and different libc call patterns) to the same operations. *)

type sem =
  | Exit
  | Open
  | Close
  | Read
  | Write
  | Lseek
  | Brk
  | Mmap
  | Munmap
  | Madvise
  | Getpid
  | Getppid
  | Getuid
  | Geteuid
  | Getgid
  | Issetugid
  | Gettimeofday
  | Time
  | Nanosleep
  | Kill
  | Sigaction
  | Uname
  | Sysconf
  | Sysctl
  | Fstatfs
  | Mkdir
  | Rmdir
  | Unlink
  | Readlink
  | Symlink
  | Rename
  | Stat
  | Fstat
  | Access
  | Chdir
  | Getcwd
  | Chmod
  | Dup
  | Dup2
  | Fcntl
  | Ioctl
  | Getdirentries
  | Socket
  | Connect
  | Bind
  | Sendto
  | Recvfrom
  | Writev
  | Execve
  | Select
  | Indirect  (** the OpenBSD-style [__syscall] generic indirect call *)

val all : sem list

val index : sem -> int
(** The sem's position in {!all}. *)

val count : int
(** [List.length all]. *)

val name : sem -> string
val of_name : string -> sem option
val pp : Format.formatter -> sem -> unit

val compare : sem -> sem -> int

module Set : Set.S with type elt = sem
