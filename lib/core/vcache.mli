(** Per-pid cache of successful authenticated-string verifications — the
    part of the kernel-side fast path that lets a hot loop passing the
    same string argument, extension block or predecessor set skip
    recomputing its AES-CMAC on every trap.

    {b Soundness rule}: a hit is only legal when the cache key covers
    every byte the MAC computation covered. An entry is the full contents
    of an authenticated string — exactly the bytes its tag covers —
    together with the supplied 16-byte tag, so it asserts "CMAC(k, bytes)
    = tag was verified before". Any tampered string or tag misses and
    takes the slow path to the same structured deny — so denials are
    byte-identical with the cache on or off. Call MACs are not cached
    here: {!Precomp} decides every repeated call first. The control-flow
    [lbMAC] is nonce-fresh (the kernel-held counter changes every call)
    and is {e never} cached.

    The [pid] is not needed for MAC soundness (the tag does not depend on
    it) but scopes what a process is charged: the entries live in a
    {!Pid_table}, dropped on [execve] and on process teardown, so a
    recycled pid pays for its own strings again and never observes
    another image's warm cache. Unlike {!Precomp} and {!Cfpre}, the
    vcache has no shared table: a hit's lower charge must come from the
    pid's own earlier verification, and the checker probes it on every
    predecessor set a shared cfpre fact proves, exactly as the slow path
    would, and remembers the set on a miss.

    Only successful verifications are remembered. Counters are published
    into the registry passed at creation: [vcache.hits], [vcache.misses]
    and the {!Pid_table} instruments under the [vcache] prefix. *)

type t

val create : registry:Asc_obs.Metrics.registry -> unit -> t

val check : t -> pid:int -> bytes:string -> mac:string -> bool
(** [check t ~pid ~bytes ~mac] is [true] iff [(bytes, mac)] was
    {!remember}ed for [pid] (and not evicted or dropped since). Counts a
    hit or a miss. A hit allocates nothing. *)

val remember : t -> pid:int -> bytes:string -> mac:string -> unit
(** Record a string verification that just succeeded on the slow path.
    Never call this on a failed comparison. *)

val drop_pid : t -> int -> unit
(** Drop every entry owned by [pid] (execve and teardown). *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (the slow-path
    MAC cost minus the hit cost, accounted by the checker on each hit). *)

val size : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val invalidations : t -> int
val cycles_saved : t -> int
