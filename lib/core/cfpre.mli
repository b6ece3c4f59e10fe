(** Per-pid, site-indexed precompiled control-flow policy — predecessor
    bitsets, the fast path in front of the checker's step 3.

    The control-flow step pays, on every trap, for re-proving the
    predecessor-set authenticated string (a MAC or vcache probe) and for
    two full 16-byte CMAC computations over the nonce-fresh policy state.
    Both have precompilable structure:

    - the predecessor set is {e content-stable}: its bytes and tag are
      fixed at install time, so the first successful slow-path
      verification at a site {!compile}s them into a bitset (bit [b] set
      iff [Encoded.predset_mem contents b]) and the steady-state
      membership check becomes one load+test;
    - the policy state is exactly one complete CMAC block, so each lbMAC
      refresh is a single AES invocation
      ({!Asc_crypto.Cmac.mac_block_into}, into the monitor's 16-byte
      buffers) instead of a from-scratch MAC — the nonce counter still
      changes every call and the tag is still computed fresh (§3.4's
      freshness guarantee is untouched); only setup and allocation are
      amortized.

    {!check} accepts an entry only when the live reference {e and} the
    live guest bytes equal the compiled ones — conditions under which the
    slow path's string MAC would necessarily verify with the same bytes —
    and anything else (no entry, a moved reference, a changed byte) is
    {!constructor-Declined}: the untouched slow path decides, so denies
    are byte-identical with the table on or off.

    The entries live in a {!Pid_table} keyed by site. Counters are
    published in the registry passed at creation: [cfpre.hits],
    [cfpre.misses], [cfpre.fallbacks], [cfpre.compiles] and the
    {!Pid_table} instruments under the [cfpre] prefix. *)

type t

type entry
(** A compiled site: the verified predecessor reference, its contents and
    the derived bitset. *)

val block_limit : int
(** 65536: the largest {e span} of block ids a bitset represents. Block
    ids are globally unique (program id in the high bits), so each bitset
    is offset from its set's smallest id and only [max - min + 1] must
    stay dense. A verified set spanning beyond it is never compiled and
    its site keeps taking the slow path. *)

val create : registry:Asc_obs.Metrics.registry -> unit -> t

(** What {!check} proved: [Hit] means the live predecessor set is
    byte-identical to the slow-path-verified one — charge
    [Svm.Cost_model.cfpre_hit_cost] and decide membership with
    {!member}. [Declined] means nothing was proved and nothing was
    charged: run the slow path. Its cause is telemetry's: [Cf_slow] (no
    entry, counted in [cfpre.misses]), [Cf_fallback_ref] (the live
    reference differs from the compiled one) or [Cf_fallback_contents]
    (the reference matches but the guest bytes changed), both counted in
    [cfpre.fallbacks]. *)
type verdict =
  | Hit of entry
  | Declined of Asc_obs.Telemetry.cf_reason

val check :
  t -> m:Svm.Machine.t -> pid:int -> site:int -> pred_ref:Encoded.as_ref -> verdict
(** Allocation-light probe (the [Hit] block at most, no byte copies):
    direct (pid, site) lookup, structural compare of the compiled
    reference, and an allocation-free compare of the live guest bytes
    against the compiled contents. *)

val compile : t -> pid:int -> site:int -> pred_ref:Encoded.as_ref -> contents:string -> unit
(** Compile a site entry from a predecessor set that just verified on the
    slow path: [contents] are the bytes [pred_ref.as_mac] was checked
    against. First writer wins; declined (no entry, site stays on the
    slow path) when the set is malformed or spans more than
    {!block_limit} ids. Never call this on a failed verification. *)

val member : entry -> int -> bool
(** One load+test: equals [Encoded.predset_mem contents bid] for every
    [bid], by construction of the bitset. *)

val contents_length : entry -> int
(** Length in bytes of the compiled set (the charge parameter of
    [Svm.Cost_model.cfpre_hit_cost]). *)

val state_into : Bytes.t -> counter:int -> last_block:int -> unit
(** Serialize the policy state [u64 counter || u64 lastBlock] (LE) into
    the first 16 bytes of the buffer — the allocation-free counterpart of
    [Encoded.state_bytes]. *)

val drop_pid : t -> int -> unit
(** Drop every entry owned by [pid] (execve and teardown). *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (slow-path cost
    minus the fast-path charge, accounted by the checker). *)

val size : t -> int
val hits : t -> int
val misses : t -> int
val fallbacks : t -> int
val compiles : t -> int
val invalidations : t -> int
val cycles_saved : t -> int
