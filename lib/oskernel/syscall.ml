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
  | Indirect

let all =
  [ Exit; Open; Close; Read; Write; Lseek; Brk; Mmap; Munmap; Madvise; Getpid; Getppid;
    Getuid; Geteuid; Getgid; Issetugid; Gettimeofday; Time; Nanosleep; Kill; Sigaction;
    Uname; Sysconf; Sysctl; Fstatfs; Mkdir; Rmdir; Unlink; Readlink; Symlink; Rename;
    Stat; Fstat; Access; Chdir; Getcwd; Chmod; Dup; Dup2; Fcntl; Ioctl; Getdirentries;
    Socket; Connect; Bind; Sendto; Recvfrom; Writev; Execve; Select; Indirect ]

let index = function
  | Exit -> 0 | Open -> 1 | Close -> 2 | Read -> 3 | Write -> 4 | Lseek -> 5 | Brk -> 6
  | Mmap -> 7 | Munmap -> 8 | Madvise -> 9 | Getpid -> 10 | Getppid -> 11 | Getuid -> 12
  | Geteuid -> 13 | Getgid -> 14 | Issetugid -> 15 | Gettimeofday -> 16 | Time -> 17
  | Nanosleep -> 18 | Kill -> 19 | Sigaction -> 20 | Uname -> 21 | Sysconf -> 22
  | Sysctl -> 23 | Fstatfs -> 24 | Mkdir -> 25 | Rmdir -> 26 | Unlink -> 27
  | Readlink -> 28 | Symlink -> 29 | Rename -> 30 | Stat -> 31 | Fstat -> 32
  | Access -> 33 | Chdir -> 34 | Getcwd -> 35 | Chmod -> 36 | Dup -> 37 | Dup2 -> 38
  | Fcntl -> 39 | Ioctl -> 40 | Getdirentries -> 41 | Socket -> 42 | Connect -> 43
  | Bind -> 44 | Sendto -> 45 | Recvfrom -> 46 | Writev -> 47 | Execve -> 48
  | Select -> 49 | Indirect -> 50

let count = List.length all

let name = function
  | Exit -> "exit"
  | Open -> "open"
  | Close -> "close"
  | Read -> "read"
  | Write -> "write"
  | Lseek -> "lseek"
  | Brk -> "brk"
  | Mmap -> "mmap"
  | Munmap -> "munmap"
  | Madvise -> "madvise"
  | Getpid -> "getpid"
  | Getppid -> "getppid"
  | Getuid -> "getuid"
  | Geteuid -> "geteuid"
  | Getgid -> "getgid"
  | Issetugid -> "issetugid"
  | Gettimeofday -> "gettimeofday"
  | Time -> "time"
  | Nanosleep -> "nanosleep"
  | Kill -> "kill"
  | Sigaction -> "sigaction"
  | Uname -> "uname"
  | Sysconf -> "sysconf"
  | Sysctl -> "sysctl"
  | Fstatfs -> "fstatfs"
  | Mkdir -> "mkdir"
  | Rmdir -> "rmdir"
  | Unlink -> "unlink"
  | Readlink -> "readlink"
  | Symlink -> "symlink"
  | Rename -> "rename"
  | Stat -> "stat"
  | Fstat -> "fstat"
  | Access -> "access"
  | Chdir -> "chdir"
  | Getcwd -> "getcwd"
  | Chmod -> "chmod"
  | Dup -> "dup"
  | Dup2 -> "dup2"
  | Fcntl -> "fcntl"
  | Ioctl -> "ioctl"
  | Getdirentries -> "getdirentries"
  | Socket -> "socket"
  | Connect -> "connect"
  | Bind -> "bind"
  | Sendto -> "sendto"
  | Recvfrom -> "recvfrom"
  | Writev -> "writev"
  | Execve -> "execve"
  | Select -> "select"
  | Indirect -> "__syscall"

let of_name n = List.find_opt (fun s -> name s = n) all
let pp ppf s = Format.pp_print_string ppf (name s)
let compare = Stdlib.compare

module Set = Set.Make (struct
  type t = sem

  let compare = Stdlib.compare
end)
