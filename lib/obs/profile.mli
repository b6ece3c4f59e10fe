(** The host allocation clock. *)

val minor_words : unit -> int
(** The host's cumulative [Gc.minor_words] reading as an int — the clock
    every allocation measurement reads: the checker's step regions,
    [kernel.host_minor_words] and the benchmarks. Monotonic across GCs and
    allocation-free to sample in native code. *)
