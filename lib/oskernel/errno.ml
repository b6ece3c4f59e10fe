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

let code = function
  | EPERM -> 1
  | ENOENT -> 2
  | EBADF -> 9
  | EACCES -> 13
  | EEXIST -> 17
  | ENOTDIR -> 20
  | EISDIR -> 21
  | EINVAL -> 22
  | EMFILE -> 24
  | ENOTTY -> 25
  | ENOSYS -> 38
  | ELOOP -> 40
  | ENOTEMPTY -> 39
  | ENOMEM -> 12
  | EFAULT -> 14
  | EFBIG -> 27

let name = function
  | EPERM -> "EPERM"
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | EACCES -> "EACCES"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | EINVAL -> "EINVAL"
  | EMFILE -> "EMFILE"
  | ENOTTY -> "ENOTTY"
  | ENOSYS -> "ENOSYS"
  | ELOOP -> "ELOOP"
  | ENOTEMPTY -> "ENOTEMPTY"
  | ENOMEM -> "ENOMEM"
  | EFAULT -> "EFAULT"
  | EFBIG -> "EFBIG"

let pp ppf e = Format.pp_print_string ppf (name e)
