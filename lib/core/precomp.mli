(** Per-pid, site-indexed precompiled policy verification state — the
    exec-time fast path in front of the call-MAC check.

    The reference slow path serializes the encoded call and CMACs it on
    every trap. This table moves that work to (at most) once per call
    site: the first successful slow-path verification at a site of the
    pid's current image {e compiles} an entry holding

    - the full verified call and its supplied tag (the memo),
    - the encoded string's dynamic-field offset map
      ({!Encoded.dyn_fields}) and its suffix bytes (the template),
    - a saved CMAC chaining state ({!Asc_crypto.Cmac.Streaming}) over the
      16-byte static prefix ({!Encoded.static_prefix_len}).

    On later traps {!check} compares the structural statics (number, site,
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

    The entries live in a {!Pid_table} keyed by site. Counters are
    published in the registry passed at creation: [precomp.hits],
    [precomp.resumes], [precomp.misses], [precomp.fallbacks],
    [precomp.compiles] and the {!Pid_table} instruments under the
    [precomp] prefix. *)

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

val check : t -> pid:int -> call:Encoded.t -> supplied:string -> verdict

val compile : t -> pid:int -> call:Encoded.t -> encoded:string -> mac:string -> unit
(** Compile a site entry from a verification that just succeeded on the
    slow path: [encoded] = [Encoded.encode call], [mac] = the supplied tag
    that matched. First writer wins (the statics are site-fixed, so
    recompiling would store the same prefix state). Never call this on a
    failed comparison. *)

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
