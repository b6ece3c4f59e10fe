(** AES-128 block cipher (FIPS-197), pure OCaml.

    This replaces the Gladman AES library used by the paper's prototype for
    its AES-CBC-OMAC message authentication codes. Only encryption is needed
    (CMAC never decrypts).

    The kernel is the 32-bit T-table formulation, as in Gladman's library:
    four 256-entry round tables, derived at module initialisation from an
    S-box that is itself computed from GF(2^8) arithmetic, turn each of
    the nine full rounds into 16 table lookups and XORs over four column
    words; the last round uses the S-box. The state stays in four
    immediate ints, so a block allocates nothing and no state is shared
    between calls.

    Side channels: the table indices depend on key and data, so on the
    host the lookups are not constant-time (cache timing). The byte-wise
    kernel this replaced was not constant-time either: its S-box lookups
    were secret-indexed and its GF(2^8) doubling branched on a secret bit.
    Guests never observe host time. They see only modeled cycles, and
    [Svm.Cost_model] charges AES per block without regard to the data.
    Tag comparison ({!Cmac.equal_tags}) stays constant-time. *)

type key
(** An expanded AES-128 key schedule. *)

val expand : string -> key
(** [expand raw] expands a 16-byte raw key. @raise Invalid_argument if
    [raw] is not exactly 16 bytes. *)

val encrypt_block : key -> bytes -> pos:int -> bytes -> dst_pos:int -> unit
(** [encrypt_block k src ~pos dst ~dst_pos] encrypts the 16-byte block of
    [src] at [pos] into [dst] at [dst_pos]. [src] and [dst] may alias.
    Allocates nothing. @raise Invalid_argument, before writing anything,
    if either block lies outside its buffer. *)

val encrypt : key -> string -> string
(** [encrypt k block] encrypts a single 16-byte block given as a string.
    Convenience wrapper for tests. *)
