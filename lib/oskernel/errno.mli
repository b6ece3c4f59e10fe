(** Unix-style error numbers returned (negated) by simulated system calls. *)

type t =
  | EPERM
  | ENOENT
  | EBADF
  | EACCES
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | EMFILE
  | ENOTTY
  | ENOSYS
  | ELOOP
  | ENOTEMPTY
  | ENOMEM
  | EFAULT
  | EFBIG

val code : t -> int
(** Positive error code; syscalls return [- code e]. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
