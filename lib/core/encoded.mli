(** The encoded policy / encoded call byte string (§3.3–§3.4).

    The installer concatenates the policy elements into a self-contained
    byte string (the {e encoded policy}) and MACs it; at run time the
    kernel rebuilds the same byte string from the call's actual behavior
    (the {e encoded call}) and compares MACs. The two are equal exactly when the
    call complies with its policy, so one shared encoder is used by both
    sides — any asymmetry would be a soundness bug.

    Layout (all integers little-endian):
    - u32 syscall number, u32 call site, u32 policy descriptor, u64 block id
    - per numeric-constrained argument (descriptor bits 0–5, ascending):
      u8 index, u64 value
    - per string argument (descriptor bits 8–13, ascending):
      u8 index, u32 string address, u32 length, 16-byte string MAC
    - if the extension bit is set: u32 address, u32 length, 16-byte MAC of
      the extension block
    - if the control-flow bit is set: u32 predecessor-set address,
      u32 length, 16-byte MAC, u32 policy-state (lastBlock) address *)

type as_ref = {
  as_addr : int;   (** address of the string contents (header precedes it) *)
  as_len : int;
  as_mac : string; (** 16 bytes *)
}

type t = {
  e_number : int;
  e_site : int;
  e_descriptor : Descriptor.t;
  e_block : int;
  e_const_args : (int * int) list;    (** must match descriptor bits 0–5 *)
  e_string_args : (int * as_ref) list;(** must match descriptor bits 8–13 *)
  e_ext : as_ref option;
  e_control : (as_ref * int) option;  (** predecessor set, lastBlock addr *)
}

val encode : t -> string
(** @raise Invalid_argument if the argument lists disagree with the
    descriptor bits or a MAC is not 16 bytes. *)

val static_prefix_len : int
(** 16 — the first CMAC block of the encoded string. It contains the
    fields that are fixed for a call site across a process's lifetime:
    number, site, descriptor and the low half of the block id (the high
    half opens the suffix and is likewise a pure function of [e_block]).
    [Asc_core.Precomp] snapshots the CMAC chaining state after this block
    once per site and resumes it on later traps. *)

(** The dynamic fields of an encoded call at a fixed site — the values the
    kernel re-reads from registers / guest memory on every trap. [d_off] is
    the byte offset within {!encode}'s output, past the u8 argument-index
    byte for const/string fields (those index bytes, like every other
    byte outside the dynamic payloads, are pure functions of the
    descriptor). Payload widths: 8 bytes for a constant argument, 24 for a
    string/extension reference (u32 addr, u32 len, 16-byte MAC), 24+4 for
    the control-flow reference plus lastBlock pointer. *)
type dyn_field =
  | D_const of { d_off : int; d_arg : int }
  | D_string of { d_off : int; d_arg : int }
  | D_ext of { d_off : int }
  | D_control of { d_off : int }

val dyn_fields : Descriptor.t -> dyn_field list
(** The dynamic-field map determined by a descriptor, in layout order —
    mirrors {!encode} exactly (asserted by the precomp test suite). *)

val encoded_length : Descriptor.t -> int
(** Length of {!encode}'s output for any call with this descriptor (the
    layout is fully determined by the descriptor bits). Allocation-free:
    the checker prices every precomp hit by it. *)

val set_u32 : bytes -> pos:int -> int -> unit
(** Write a little-endian u32 in place — {!encode}'s integer encoding, for
    patching a pre-serialized suffix template at a {!dyn_field} offset. *)

val set_u64 : bytes -> pos:int -> int -> unit

val set_as_ref : bytes -> pos:int -> as_ref -> unit
(** Write an as_ref (u32 addr, u32 len, 16-byte MAC) in place.
    @raise Invalid_argument if the MAC is not 16 bytes. *)

val predset_contents : int list -> string
(** Serialization of a predecessor set as AS contents: sorted unique u64
    little-endian block ids. *)

val predset_mem : string -> int -> bool
(** Membership test on serialized predecessor-set contents. *)

val state_bytes : counter:int -> last_block:int -> string
(** The 16 bytes MAC'd for the policy state: u64 counter, u64 lastBlock
    (the counter is the kernel-side nonce of the online memory checker). *)
