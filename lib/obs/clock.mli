(** A deterministic logical clock for span timestamps.

    Traces must be reproducible run-to-run (the whole evaluation rests on
    the deterministic cycle model), so spans are never stamped from the
    wall clock. Layers with a natural time base use it directly — the
    kernel stamps spans with the machine's cycle counter — and layers
    without one (the installer pipeline) advance one of these step clocks
    by an explicit work measure per phase. *)

type t

val create : ?start:int -> unit -> t
(** Default [start] is 0. *)

val now : t -> int
val advance : t -> int -> unit
