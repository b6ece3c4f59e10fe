(** The 32-bit policy descriptor (§3.2): "a 32-bit integer that encodes
    information about which properties of the system call are constrained
    by its policy ... bits to indicate whether the value of each argument
    is determined by the policy ... whether the control flow policy for the
    call is specified."

    Bit layout:
    - bit 31 — authenticated-call marker (always set by the installer)
    - bit 30 — control-flow policy present
    - bit 29 — call site constrained (always set in the basic scheme)
    - bit 28 — extension block present (§5 argument sets / patterns)
    - bits 0–5  — argument [i]'s numeric value is constrained
    - bits 8–13 — argument [i] is an authenticated-string pointer *)

type t = int

val empty : t
(** Marker and call-site bits set, nothing else. *)

val with_control_flow : t -> t
val with_const_arg : t -> int -> t
val with_string_arg : t -> int -> t
val with_ext : t -> t

val is_authenticated : t -> bool
val has_control_flow : t -> bool
val has_ext : t -> bool
val const_args : t -> int list
(** Indices with the numeric-constraint bit, ascending. *)

val string_args : t -> int list

val num_const_args : t -> int
(** [List.length (const_args d)], without building the list. *)

val num_string_args : t -> int

val pp : Format.formatter -> t -> unit
