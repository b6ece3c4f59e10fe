(** Per-pid, site-indexed precompiled control-flow policy — predecessor
    bitsets plus the per-pid lbMAC chain scratch, the exec-time fast path
    in front of the checker's step 3.

    The control-flow step pays, on every trap, for re-proving the
    predecessor-set authenticated string (a MAC or vcache probe) and for
    two full 16-byte CMAC computations over the nonce-fresh policy state.
    Both have precompilable structure:

    - the predecessor set is {e content-stable}: its bytes and tag are
      fixed at install time, so the first successful slow-path
      verification at a site {!compile}s them into a bitset (bit [b] set
      iff [Encoded.predset_mem contents b]) and the steady-state
      membership check becomes one load+test;
    - the policy state is exactly one complete CMAC block, so with the
      pid's chain scratch armed at exec time each lbMAC refresh is a
      single AES invocation ({!Asc_crypto.Cmac.mac_block_into}) instead
      of a from-scratch MAC — the nonce counter still changes every call
      and the tag is still computed fresh (§3.4's freshness guarantee is
      untouched); only setup and allocation are amortized.

    {!check} accepts an entry only when the live reference {e and} the
    live guest bytes equal the compiled ones — conditions under which the
    slow path's string MAC would necessarily verify with the same bytes —
    and anything else ({!constructor-Miss}, a moved reference, a changed
    byte) falls back to the untouched slow path, so denies are
    byte-identical with the table on or off. Per-pid state is (re)built on
    [Proc_spawn]/[Proc_exec] and dropped on [Proc_exit], like {!Precomp}.

    Counters/gauges are published in the registry passed at creation:
    [cfpre.hits], [cfpre.misses], [cfpre.fallbacks], [cfpre.compiles],
    [cfpre.invalidations], [cfpre.size], [cfpre.cycles_saved]. *)

type t

(** The pid's preallocated 16-byte scratch buffers: the policy-state block
    being MAC'd, the freshly computed tag, and the tag read back from
    guest memory. Reusing them is what takes the fast path's host
    allocation toward zero. *)
type scratch = {
  ps_state : Bytes.t;
  ps_tag : Bytes.t;
  ps_read : Bytes.t;
}

type entry
(** A compiled site: the verified predecessor reference, its contents and
    the derived bitset. *)

val create : ?max_sites:int -> ?block_limit:int -> registry:Asc_obs.Metrics.registry -> unit -> t
(** [max_sites] (default 4096, must be ≥ 1) bounds the compiled entries
    per pid. [block_limit] (default 65536, must be ≥ 1) bounds the {e
    span} of block ids a bitset may represent — block ids are globally
    unique (program id in the high bits), so each bitset is offset from
    its set's smallest id and only [max - min + 1] must stay dense. A
    verified set spanning beyond it is simply never compiled and its
    site keeps taking the slow path. *)

(** Why a compiled entry declined to decide (the slow path then
    re-verifies from the live bytes and decides, including the deny). *)
type fallback_cause =
  | Ref_mismatch       (** the live (addr, len, tag) reference differs
                           from the compiled one *)
  | Contents_mismatch  (** the reference matches but the guest bytes
                           moved out from under it *)

(** What {!check} proved: [Hit] means the live predecessor set is
    byte-identical to the slow-path-verified one — charge
    [Svm.Cost_model.cfpre_hit_cost] and decide membership with
    {!member}; [Miss]/[Fallback] mean nothing was proved and nothing was
    charged — run the slow path. *)
type verdict =
  | Miss
  | Hit of { entry : entry; scratch : scratch }
  | Fallback of fallback_cause

val check :
  t -> m:Svm.Machine.t -> pid:int -> site:int -> pred_ref:Encoded.as_ref -> verdict
(** Allocation-light probe (a handful of words, no byte copies): direct
    (pid, site) lookup, structural compare of the compiled reference, and
    an allocation-free compare of the live guest bytes against the
    compiled contents. *)

val compile : t -> pid:int -> site:int -> pred_ref:Encoded.as_ref -> contents:string -> unit
(** Compile a site entry from a predecessor set that just verified on the
    slow path: [contents] are the bytes [pred_ref.as_mac] was checked
    against. First writer wins; bounded by [max_sites]; declined (no
    entry, site stays on the slow path) when the set is malformed or
    names a block id outside [0, block_limit). Never call this on a
    failed verification. *)

val member : entry -> int -> bool
(** One load+test: equals [Encoded.predset_mem contents bid] for every
    [bid], by construction of the bitset. *)

val contents_length : entry -> int
(** Length in bytes of the compiled set (the charge parameter of
    [Svm.Cost_model.cfpre_hit_cost]). *)

val state_into : scratch -> counter:int -> last_block:int -> unit
(** Serialize the policy state [u64 counter || u64 lastBlock] (LE) into
    [ps_state] — the allocation-free counterpart of
    [Encoded.state_bytes]. *)

val prepare_pid : t -> int -> unit
(** Establish a fresh, empty site table and chain scratch for [pid],
    dropping anything an earlier image compiled — called on [Proc_spawn]
    and [Proc_exec]. *)

val invalidate_pid : t -> int -> unit
(** Drop every entry owned by [pid] — called on process teardown. *)

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
