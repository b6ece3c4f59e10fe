(** The storage under the fast path: per-pid tables that decide every
    charge and counter, and one shared table of verified facts per layer.

    {b Per-pid tables.} {!Vcache}, {!Precomp} and {!Cfpre} each keep one
    [t]. It is one small hash table per pid, created by that pid's first
    entry at 4 buckets and doubled at two entries a bucket, so a process
    that verifies a few sites costs a few words. The [t] answers for the
    pid it served last without looking the pid up: a trap asks each layer
    about the running pid several times, and only a trap of another pid
    pays the lookup. The answer covers a pid with no table too, and
    {!drop_pid} clears it.
    An entry says what this pid's own traps have already been charged for:
    a pid's first trap at a site is charged the slow path's cycles however
    its MAC was decided, and only its later traps are charged the fast
    path's. The lifecycle is one rule, applied by [Checker.monitor]:
    execve and exit {!drop_pid} (the image the entries were verified
    against is gone, and the pid could be reused). Each pid's table holds
    at most {!bound} entries; adding past the bound drops that pid's table
    and starts it again, which no other pid observes.

    Counters live only in the metrics registry passed at creation, under
    the layer's prefix: [<prefix>.evictions] (entries dropped by the
    bound), [<prefix>.invalidations] (entries dropped by {!drop_pid}),
    [<prefix>.size] (entries held) and [<prefix>.cycles_saved] (modeled
    cycles the layer skipped, per {!note_saved}).

    {b Shared facts} ({!Shared}). A precomp memo or a cfpre bitset states
    a fact about the monitor's key and the verified bytes, not about a
    pid, so {!Precomp} and {!Cfpre} also keep each first verified entry in
    one table that every process reads, keyed by (site, block id). A pid's
    first visit to a site that another process of the image already
    verified is decided by comparing the live state with that fact,
    without the slow path's MAC work, and is still charged and counted as
    the slow path. *)

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
(** Drop [pid]'s table, counting its entries as invalidations. A later
    {!find} for [pid] raises [Not_found], even when [pid] was the pid
    served last. *)

val note_saved : ('k, 'v) t -> int -> unit
(** Credit [n] modeled cycles to [<prefix>.cycles_saved]. *)

val pids : ('k, 'v) t -> int
(** Number of pids holding a table. *)

val size : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
val invalidations : ('k, 'v) t -> int
val cycles_saved : ('k, 'v) t -> int

(** One layer's shared facts: one table under the monitor's key, keyed by
    (site, block id). Block ids carry the installer's program id in their
    high bits, so keys are distinct only across images installed under
    distinct program ids. Images under one id (the installer's default is
    1) share a text base and can trap at the same key: there the first
    image to verify holds the fact until a flush, the layer's compare
    declines the others, and their first visits take the slow path. Only successful verifications are added; the first writer wins.
    A lookup allocates nothing. The table holds at most {!Shared.bound}
    facts: adding past it empties the table, counted in
    [<prefix>.shared_evictions]. A process that churns the table can cost
    others their shared resolutions, never a verdict or a charge. Nothing
    drops it at exec or exit. [<prefix>.shared_hits] counts the pid
    entries made from a fact ({!note_hit}). *)
module Shared : sig
  type 'v t

  val bound : int
  (** 1024 facts per table, in twice as many slots. *)

  val create : Asc_obs.Metrics.registry -> prefix:string -> 'v t

  val find : 'v t -> site:int -> block:int -> 'v
  (** @raise Not_found when no fact is held for (site, block). *)

  val add : 'v t -> site:int -> block:int -> 'v -> unit

  val note_hit : 'v t -> unit

  val size : 'v t -> int
  val hits : 'v t -> int
  val evictions : 'v t -> int
end
