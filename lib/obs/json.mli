(** A minimal JSON tree, emitter and parser.

    The observability layer needs machine-readable output (Chrome
    trace-event files, JSON-lines event logs, benchmark artifacts) and the
    tests need to re-parse what was emitted, but the container pins the
    dependency set — so this is a small self-contained implementation
    rather than a new dependency. Integers are kept exact (cycle counts
    routinely exceed 2^53 semantics mattering is unlikely, but exactness is
    free here); floats are only produced when a document contains a
    fraction or exponent. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
(** Indented rendering for humans. *)

val parse : string -> (t, string) result
(** Strict parser for the grammar emitted by {!to_string} (standard JSON:
    objects, arrays, strings with escapes including [\uXXXX], numbers,
    booleans, null). Errors carry a byte offset. *)

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
