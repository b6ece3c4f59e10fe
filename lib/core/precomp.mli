(** Per-pid, site-indexed precompiled policy verification state — the
    exec-time fast path in front of the call-MAC check.

    The reference slow path serializes the encoded call and CMACs it on
    every trap. This table moves that work to (at most) once per call
    site: the pid's table is created when the image is established
    ([Proc_spawn]/[Proc_exec]), and the first successful slow-path
    verification at a site {e compiles} an entry holding

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

    Anything else — no entry, structural mismatch, tag mismatch — is a
    {!constructor-Fallback}: the caller runs the unchanged slow path (a
    full CMAC of the encoded call), so denies are byte-identical with the
    table on or off. Entries are only ever created from successful
    verifications; a failed resume remembers nothing.

    Counters/gauges are published in the registry passed at creation:
    [precomp.hits], [precomp.resumes], [precomp.misses],
    [precomp.fallbacks], [precomp.compiles], [precomp.invalidations],
    [precomp.size], [precomp.cycles_saved]. *)

type t

val create :
  ?max_sites:int -> key:Asc_crypto.Cmac.key -> registry:Asc_obs.Metrics.registry -> unit -> t
(** [max_sites] (default 4096, must be ≥ 1) bounds the compiled entries
    per pid; sites beyond the bound simply keep taking the slow path.
    [key] must be the checker's verification key — the saved chaining
    states are key-specific. *)

(** Why a compiled entry declined to decide — surfaced so the telemetry
    plane can distinguish "the site's structure changed" from "the tag
    didn't verify" in its fallback rollups. *)
type fallback_cause =
  | Statics_mismatch  (** number/site/descriptor/block differ from the
                          compiled statics (also covers a malformed
                          argument list during field comparison) *)
  | Tag_mismatch      (** the resumed MAC did not match the supplied tag *)

(** What {!check} proved, and what the checker should charge:
    [Hit]/[Resumed] mean the call MAC is verified (charge
    [Svm.Cost_model.precomp_hit_cost suffix_len], respectively
    [precomp_lookup_cost + mac_resume_cost suffix_len]); [Miss]/[Fallback]
    mean nothing was proved and nothing was charged — run the slow path. *)
type verdict =
  | Miss       (** no compiled entry for (pid, site) *)
  | Hit of { suffix_len : int; encoded_len : int }
  | Resumed of { suffix_len : int; encoded_len : int }
  | Fallback of fallback_cause
      (** structural or tag mismatch — slow path decides *)

val check : t -> pid:int -> call:Encoded.t -> supplied:string -> verdict

val compile : t -> pid:int -> call:Encoded.t -> encoded:string -> mac:string -> unit
(** Compile a site entry from a verification that just succeeded on the
    slow path: [encoded] = [Encoded.encode call], [mac] = the supplied tag
    that matched. First writer wins (the statics are site-fixed, so
    recompiling would store the same prefix state); bounded by
    [max_sites]. Never call this on a failed comparison. *)

val prepare_pid : t -> int -> unit
(** Establish a fresh, empty site table for [pid], dropping anything an
    earlier image compiled — called on [Proc_spawn] and [Proc_exec]. *)

val invalidate_pid : t -> int -> unit
(** Drop every entry owned by [pid] — called on process teardown. *)

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
