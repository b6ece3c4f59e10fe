(** A tamper-evident audit chain.

    Audit entries are worth little in a forensic investigation if the
    attacker who triggered them can also doctor the log. This module
    protects the audit trail with the same AES-CMAC primitive the paper
    uses for system calls: every appended entry [e_i] extends a running
    chain

    {[ m_i = MAC(key, m_{i-1} ++ encode(e_i)) ]}

    where [encode] is the entry's compact JSON rendering and [m_0] is a
    fixed genesis MAC. Each retained record stores its own chain value, so
    a verifier holding the key can recompute the chain and pinpoint the
    first record that was bit-flipped, reordered or dropped.

    Retention is bounded like the kernel's audit ring. Eviction is safe:
    when the oldest record is dropped, its chain value becomes the
    {e anchor} from which verification of the retained suffix restarts —
    dropping old entries never breaks the chain over what remains, and the
    exported anchor still commits to the full evicted prefix.

    The JSONL export is one object per line: a header carrying the anchor,
    one record per entry, and a trailer committing to the head of the
    chain. Truncating the file removes the trailer (or breaks its MAC),
    reordering breaks the sequence numbers and the chain, and any bit flip
    in a retained record breaks that record's MAC — {!verify_string}
    reports each with the offending line. *)

type t

type record = {
  seq : int;           (** 1-based position in the full (pre-eviction) log *)
  entry : Json.t;
  mac : string;        (** raw 16-byte chain value [m_seq] *)
}

val create : key:Asc_crypto.Cmac.key -> ?capacity:int -> unit -> t
(** Empty chain. [capacity] (default 4096) bounds retained records. *)

val append : t -> Json.t -> unit
(** Extend the chain with an entry. O(entry size). *)

val length : t -> int
(** Records currently retained. *)

val appended : t -> int
(** Records ever appended (survives eviction). *)

val head_mac : t -> string
(** Raw 16-byte chain value of the newest record (the genesis MAC when
    the chain is empty). *)

val hex : string -> string
(** Lowercase hex of a raw MAC — the encoding used throughout the export
    (and the form {!verify_string}'s [expect_head] takes). *)

val export_string : t -> string
(** The JSONL rendering described above. *)

val export_file : t -> string -> unit
(** [export_file t path] writes {!export_string} to [path]. *)

type verify_error = {
  ve_line : int;          (** 1-based line number of the offending line *)
  ve_seq : int option;    (** sequence number, when the line carried one *)
  ve_what : string;       (** what failed: tampered, truncated, reordered... *)
}

val pp_verify_error : Format.formatter -> verify_error -> unit

val verify_string :
  ?expect_head:string -> key:Asc_crypto.Cmac.key -> string -> (int, verify_error) result
(** Re-derive the chain over an exported log. [Ok n] means all [n] records
    (plus header and trailer) verified; [Error e] pinpoints the first bad
    line. Detects bit flips in any retained record, truncation (missing or
    mismatched trailer), reordering and gaps (sequence or chain breaks),
    and a forged anchor (header MAC of the wrong shape).

    Cutting the file back to a prefix {e and} rewriting the trailer from a
    chain value visible in that prefix is the one edit the file alone
    cannot expose — it is indistinguishable from an earlier honest export.
    Pass [expect_head] (the hex {!head_mac} recorded out of band, e.g. from
    the kernel operator's console) to close it: the trailer must then match
    that exact head. *)

val verify_records :
  key:Asc_crypto.Cmac.key -> anchor_seq:int -> anchor_mac:string -> record list ->
  (int, verify_error) result
(** The in-memory core of {!verify_string}, for callers that already hold
    parsed records (line numbers in errors count records from 1). *)
