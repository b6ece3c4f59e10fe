(** In-memory Unix-like filesystem with directories, regular files and
    symbolic links.

    Symlinks matter to the reproduction: §5.4 of the paper discusses the
    classic monitor race where a policy permits [/tmp/foo] but an attacker
    points a symlink there, so policies must refer to *normalized* names.
    {!normalize} implements in-kernel resolution of symlinks, [.] and
    [..]. *)

type t

val create : unit -> t
(** Fresh filesystem containing only the root directory. *)

type stat = { st_size : int; st_kind : [ `File | `Dir | `Symlink ] }

(** All path arguments are absolute or resolved against [cwd]. *)

val normalize : t -> cwd:string -> string -> (string, Errno.t) result
(** Canonical absolute path after resolving [.], [..] and symlinks in every
    component (bounded depth; [Error ELOOP] on cycles). The final component
    need not exist, but its parent must. *)

val mkdir : t -> cwd:string -> string -> (unit, Errno.t) result
val rmdir : t -> cwd:string -> string -> (unit, Errno.t) result
val symlink : t -> cwd:string -> target:string -> linkpath:string -> (unit, Errno.t) result
val readlink : t -> cwd:string -> string -> (string, Errno.t) result
val unlink : t -> cwd:string -> string -> (unit, Errno.t) result
val rename : t -> cwd:string -> src:string -> dst:string -> (unit, Errno.t) result
val stat : t -> cwd:string -> string -> (stat, Errno.t) result
val exists : t -> cwd:string -> string -> bool
val is_dir : t -> cwd:string -> string -> bool

val create_file : t -> cwd:string -> string -> contents:string -> (unit, Errno.t) result
(** Create or truncate a regular file. Parent directories must exist. *)

val read_file : t -> cwd:string -> string -> (string, Errno.t) result
val file_size : t -> cwd:string -> string -> (int, Errno.t) result

val read_at : t -> cwd:string -> string -> pos:int -> len:int -> (string, Errno.t) result
(** Read up to [len] bytes at offset [pos]; short reads at EOF. *)

val max_file_size : int
(** 16 MiB: no write may end past this offset. *)

val write_at : t -> cwd:string -> string -> pos:int -> string -> (int, Errno.t) result
(** Write at offset [pos], extending the file as needed (zero-filled gap).
    [Error EFBIG], with the file unchanged, if the write would end past
    {!max_file_size}: a guest's [lseek] offset must not choose how much
    the host allocates. *)

val truncate : t -> cwd:string -> string -> (unit, Errno.t) result
val readdir : t -> cwd:string -> string -> (string list, Errno.t) result
(** Entry names, sorted. *)

val mkdir_p : t -> string -> unit
(** Create an absolute directory path and all missing ancestors; used by
    harnesses to set up images. @raise Invalid_argument on non-directory
    conflicts. *)
