(** The per-pid storage under the fast path: {!Vcache}, {!Precomp} and
    {!Cfpre} each keep one of these, and nothing else.

    Every fast-path entry was verified against one pid's current image, so
    the storage is one hash table per pid, created by that pid's first
    entry. The lifecycle is one rule, applied by [Checker.monitor]: execve
    and exit {!drop_pid} (the image the entries were verified against is
    gone, and the pid could be reused). Each pid's table holds at most
    {!bound} entries; adding past the bound drops that pid's table and
    starts it again, which no other pid observes.

    Counters live only in the metrics registry passed at creation, under
    the layer's prefix: [<prefix>.evictions] (entries dropped by the
    bound), [<prefix>.invalidations] (entries dropped by {!drop_pid}),
    [<prefix>.size] (entries held) and [<prefix>.cycles_saved] (modeled
    cycles the layer skipped, per {!note_saved}). *)

type ('k, 'v) t

val bound : int
(** 4096 entries per pid. *)

val create : Asc_obs.Metrics.registry -> prefix:string -> ('k, 'v) t

val find : ('k, 'v) t -> pid:int -> 'k -> 'v
(** The entry for [k] in [pid]'s table. Exception-style so that a hit
    allocates nothing.
    @raise Not_found when [pid] has no table or [k] no entry. *)

val mem : ('k, 'v) t -> pid:int -> 'k -> bool

val add : ('k, 'v) t -> pid:int -> 'k -> 'v -> unit
(** Add an entry unless [k] already has one (first writer wins). A pid's
    first entry creates its table. A table already holding {!bound}
    entries is emptied first, and its entries are counted as
    evictions. *)

val drop_pid : ('k, 'v) t -> int -> unit
(** Drop [pid]'s table, counting its entries as invalidations. *)

val note_saved : ('k, 'v) t -> int -> unit
(** Credit [n] modeled cycles to [<prefix>.cycles_saved]. *)

val pids : ('k, 'v) t -> int
(** Number of pids holding a table. *)

val size : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
val invalidations : ('k, 'v) t -> int
val cycles_saved : ('k, 'v) t -> int
