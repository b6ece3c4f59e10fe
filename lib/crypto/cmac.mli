(** CMAC (OMAC1) over AES-128, per RFC 4493 / Iwata-Kurosawa "OMAC: One-Key
    CBC MAC" — the MAC construction the paper's prototype uses
    ("AES-CBC-OMAC", producing a 128-bit code). *)

type key
(** A CMAC key: the expanded AES key, the two derived subkeys, a second
    schedule with the subkey K1 folded in (for {!mac_block_into}), and
    reusable scratch buffers for the MAC computations (derive a key once
    per kernel and reuse it; [of_raw] is the only allocation point). *)

val of_raw : string -> key
(** [of_raw raw] derives a CMAC key from a 16-byte raw AES key.
    @raise Invalid_argument if [raw] is not 16 bytes. *)

val mac : key -> string -> string
(** [mac k msg] returns the 16-byte CMAC tag of [msg] (any length,
    including empty). *)

val mac_bytes : key -> bytes -> pos:int -> len:int -> string
(** [mac_bytes k b ~pos ~len] MACs the slice [b.[pos .. pos+len-1]]. *)

val mac_block_into : key -> bytes -> dst:bytes -> unit
(** [mac_block_into k b ~dst] writes the 16-byte CMAC tag of the single
    complete block [b.[0..15]] into [dst.[0..15]] without allocating. A
    complete block is its own final block, so the tag is
    [AES(b xor k1)] — the degenerate case of the {!Streaming} chain whose
    saved empty-prefix state is the subkey schedule itself. The key keeps
    a schedule with k1 folded into round key 0 ({!Aes.prewhiten}), so the
    step is exactly one {!Aes.encrypt_block} from [b] to [dst], with no
    copy and no XOR pass; [b] and [dst] may be the same buffer. Always
    equal to [mac k] of the same 16 bytes; this is the per-call step of
    the checker's lbMAC nonce chain.
    @raise Invalid_argument if [b] or [dst] is shorter than 16 bytes. *)

val equal_tags : string -> string -> bool
(** Constant-time comparison of two 16-byte tags. Returns [false] when
    lengths differ. *)

val equal_tags_bytes : bytes -> bytes -> bool
(** {!equal_tags} over scratch buffers (no string conversion on the
    comparison path). *)

val tag_len : int
(** Length of a tag in bytes (16). *)

(** Incremental CMAC over the same key: absorb a message in arbitrary
    pieces, snapshot the chaining state after a known prefix, and later
    resume from that snapshot to authenticate [prefix ++ suffix] while
    paying AES only for the suffix blocks. For every split of a message,
    [init; update*; final] equals the one-shot {!mac} of the whole message
    (the property the precompiled fast path of [Asc_core.Precomp] rests
    on). A state always withholds its most recent <= 16 bytes from the CBC
    chain, because the final block needs the RFC 4493 k1/k2 treatment —
    so a {!saved} snapshot carries the chaining value plus that pending
    tail, and resuming replays no message bytes. *)
module Streaming : sig
  type state

  type saved
  (** An immutable snapshot of a state: safe to store long-term (e.g. in a
      per-site precompiled table) and to {!resume} from any number of
      times. *)

  val init : key -> state

  val update : state -> bytes -> pos:int -> len:int -> unit
  (** Absorb the slice [b.[pos .. pos+len-1]].
      @raise Invalid_argument if the slice is out of bounds. *)

  val update_string : state -> string -> unit

  val final : state -> string
  (** The 16-byte tag of everything absorbed so far. Non-destructive: the
      state may keep absorbing afterwards, and finalizing twice yields the
      same tag. *)

  val save : state -> saved

  val resume : key -> saved -> state
  (** A fresh state positioned exactly where {!save} left off.
      @raise Invalid_argument if the snapshot is structurally invalid
      (wrong chaining-value length, pending tail longer than a block, or
      an impossible total/tail combination). *)

  val total : state -> int
  (** Bytes absorbed so far. *)
end
