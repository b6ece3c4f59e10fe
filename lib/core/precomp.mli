(** Per-pid, site-indexed precompiled policy verification state — the
    exec-time fast path in front of the call-MAC check — over one table
    of verified facts that every process shares.

    The reference slow path serializes the encoded call and CMACs it on
    every trap. This table moves that work to (at most) once per call
    site: the first successful slow-path verification at a site of the
    pid's current image {e compiles} an entry holding

    - the full verified call and its supplied tag (the memo),
    - the encoded string's dynamic-field offset map
      ({!Encoded.dyn_fields}) and its suffix bytes (the template),
    - a saved CMAC chaining state ({!Asc_crypto.Cmac.Streaming}) over the
      16-byte static prefix ({!Encoded.static_prefix_len}).

    On a later trap the checker first asks {!probe} whether the live
    state still equals the memo. It compares the registers and the guest
    bytes the checker would rebuild the call from: the number, r7
    (descriptor) and r8 (block id) and each constant-argument register at
    full width, each string, extension and predecessor-set pointer with
    the 20 header bytes behind it (u32 length, then the tag), r10 (the
    policy-state pointer), and, in constant time, the 16 call-MAC bytes at
    r11. These are exactly the values {!check}'s compares of the statics,
    the dynamic fields and the tag would compare, read from the guest
    instead of from a rebuilt record. So when all are equal the rebuilt
    call would {e be} the memo, with the tag the memo was verified under:
    a memo hit with no rebuild. Equal bytes also mean the rebuild could
    not have denied, since the memo's descriptor is authenticated and its
    headers were readable and in bounds. Any difference declines,
    counting nothing, and the checker rebuilds the call and runs
    {!check}.

    {!check} compares the structural statics (number, site,
    descriptor, block id — which pin the whole static prefix and every
    template byte outside the dynamic payloads) and then either

    - {b memo hit}: every dynamic field and the supplied tag equal the
      memo — the verification is the same byte string as the compiled one,
      no MAC work at all; or
    - {b resume}: some dynamic field changed — patch the template at the
      precompiled offsets (reproducing [Encoded.encode] of the live call
      from byte 16 on) and resume the saved chaining state over the
      suffix, paying AES only for the suffix blocks. Success moves the
      memo to the new call.

    Anything else — no entry, structural mismatch, tag mismatch — is
    {!constructor-Declined}: the caller runs the unchanged slow path (a
    full CMAC of the encoded call), so denies are byte-identical with the
    table on or off. Entries are only ever created from successful
    verifications; a failed resume remembers nothing.

    The entries live in a {!Pid_table} keyed by site. Every {!compile}
    also files a copy of its entry in a {!Pid_table.Shared} table keyed by
    (site, block id), first writer wins: the memo and its tag assert
    [CMAC(key, encoded memo) = tag], a fact about the key and the bytes
    that holds for every pid, and its saved prefix state serves any pid's
    later resumes. A miss in a pid's own table then first tries that fact
    by the live compare ({!probe_shared}). A fact that proves the call
    gives the pid the entry the slow path would have compiled, and the
    checker charges, counts and labels the call exactly as the slow path:
    only the host's MAC work is skipped. Nothing drops the shared table at
    exec or exit.

    Counters are published in the registry passed at creation:
    [precomp.hits], [precomp.resumes], [precomp.misses],
    [precomp.fallbacks], [precomp.compiles], the {!Pid_table} instruments
    under the [precomp] prefix, and [precomp.shared_hits] (pid entries
    made from a shared fact) and [precomp.shared_evictions]. *)

type t

val create : key:Asc_crypto.Cmac.key -> registry:Asc_obs.Metrics.registry -> unit -> t
(** [key] must be the checker's verification key — the saved chaining
    states are key-specific. *)

(** What {!check} proved, and what the checker should charge for a call
    of encoded length [n] (a function of its descriptor,
    {!Encoded.encoded_length}) and suffix length [s = n - 16]:
    [Hit]/[Resumed] mean the call MAC is verified (charge
    [Svm.Cost_model.precomp_hit_cost s], respectively
    [precomp_lookup_cost + mac_resume_cost s]). [Declined] means nothing
    was proved and nothing was charged: run the slow path. Its cause is
    telemetry's: [F_no_entry] (counted in [precomp.misses]) or
    [F_statics]/[F_tag] (counted in [precomp.fallbacks]). [F_statics]
    also covers a malformed argument list during field comparison. *)
type verdict =
  | Hit
  | Resumed
  | Declined of Asc_obs.Telemetry.fallback

(** What {!probe} found for a pid at a site. *)
type probe =
  | Memo of Encoded.t  (** the live state equals the pid's memo *)
  | Differs            (** the pid has an entry, and the live state differs *)
  | No_entry           (** the pid has no entry at the site *)

val probe : t -> m:Svm.Machine.t -> pid:int -> site:int -> number:int -> probe
(** [probe t ~m ~pid ~site ~number] is [Memo memo] when [pid]'s entry at
    [site] exists and the live state of [m] — [number] (the trap's r0),
    the registers, the authenticated-string headers they point at and
    the call-MAC bytes at r11 — equals its memo (see above). Then the
    call MAC is verified exactly as a {!check} [Hit] would verify it:
    [precomp.hits] is counted and the checker charges
    [Svm.Cost_model.precomp_hit_cost]. [memo] is the call the checker
    would have rebuilt, so its references serve steps 2 and 3.
    [Differs] and [No_entry] count nothing and charge nothing: rebuild
    the call and {!check} it, after asking {!probe_shared} on
    [No_entry]. A hit allocates only the [Memo]. *)

val check : t -> pid:int -> call:Encoded.t -> supplied:string -> verdict

val probe_shared : t -> m:Svm.Machine.t -> pid:int -> site:int -> number:int -> Encoded.t option
(** A per-pid miss decided from the live state, asked when {!probe}
    found [No_entry] for [pid] at [site]: [Some memo] when the live state
    of [m] equals the shared fact at ([site], r8) by {!probe}'s
    compares. The call MAC is then
    verified, and [pid]'s entry is made from the fact. It counts what the
    slow path's {!check} and {!compile} would count, a miss and a compile,
    plus a shared hit; the checker charges the slow path's
    [Svm.Cost_model.mac_cost]. [None] counts nothing. *)

val compile : t -> pid:int -> call:Encoded.t -> encoded:string -> mac:string -> unit
(** Compile a site entry from a verification that just succeeded on the
    slow path: [encoded] = [Encoded.encode call], [mac] = the supplied tag
    that matched. First writer wins (the statics are site-fixed, so
    recompiling would store the same prefix state). A new entry is also
    filed as the shared fact at (site, block) unless one is held. Never
    call this on a failed comparison. *)

val drop_pid : t -> int -> unit
(** Drop every entry owned by [pid] (execve and teardown). *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (slow-path MAC
    cost minus the fast-path charge, accounted by the checker). *)

val size : t -> int
val hits : t -> int
val resumes : t -> int
val misses : t -> int
val fallbacks : t -> int
val compiles : t -> int
val invalidations : t -> int
val cycles_saved : t -> int

val shared_size : t -> int
(** Facts held in the shared table. *)

val shared_hits : t -> int
val shared_evictions : t -> int
