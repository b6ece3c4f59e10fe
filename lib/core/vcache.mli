(** Bounded LRU cache of successful authenticated-string verifications —
    the part of the kernel-side fast path that lets a hot loop passing the
    same string argument, extension block or predecessor set skip
    recomputing its AES-CMAC on every trap.

    {b Soundness rule}: a hit is only legal when the cache key covers
    every byte the MAC computation covered. An entry is the full contents
    of an authenticated string — exactly the bytes its tag covers —
    together with the supplied 16-byte tag, so it asserts "CMAC(k, bytes)
    = tag was verified before". Any tampered string or tag changes the
    entry, misses, and takes the slow path to the same structured deny —
    so denials are byte-identical with the cache on or off. Call MACs are
    not cached here: {!Precomp} decides every repeated call first. The
    control-flow [lbMAC] is nonce-fresh (the kernel-held counter changes
    every call) and is {e never} cached.

    The [pid] is not needed for MAC soundness (the tag does not depend on
    it) but provides lifecycle isolation: entries are invalidated
    wholesale on [execve] and on process teardown, so a recycled pid can
    never observe another image's warm cache ({!invalidate_pid}, driven by
    [Oskernel.Kernel] lifecycle hooks).

    Only successful verifications are remembered. Hit/miss/eviction
    counters, a size gauge and a cycles-saved gauge are published into the
    registry passed at creation ([vcache.hits], [vcache.misses],
    [vcache.evictions], [vcache.invalidations], [vcache.size],
    [vcache.cycles_saved]). *)

type t

val create : ?capacity:int -> registry:Asc_obs.Metrics.registry -> unit -> t
(** Bounded LRU holding at most [capacity] (default 1024, must be ≥ 1)
    verified entries; counters/gauges are registered in [registry]
    (typically the owning kernel's). *)

val check : t -> pid:int -> bytes:string -> mac:string -> bool
(** [check t ~pid ~bytes ~mac] is [true] iff [(pid, bytes, mac)] was
    previously {!remember}ed (and not evicted or invalidated since). Bumps
    the entry to most-recently-used and the hit/miss counters either way. *)

val remember : t -> pid:int -> bytes:string -> mac:string -> unit
(** Record a string verification that just succeeded on the slow path,
    evicting the least-recently-used entry when full. Never call this on a
    failed comparison. *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (the slow-path
    MAC cost minus the hit cost, accounted by the checker on each hit). *)

val invalidate_pid : t -> int -> unit
(** Drop every entry owned by [pid] — called on [execve] (the image the
    entries were verified against is gone) and on process teardown (the
    pid may be reused). *)

val size : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val invalidations : t -> int

val cycles_saved : t -> int
(** Total modeled cycles skipped by hits, per {!note_saved}. *)
