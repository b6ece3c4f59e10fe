(* [Gc.minor_words] is an unboxed [@@noalloc] external in native code, and
   the immediate [int_of_float] keeps the result unboxed — so taking a
   sample allocates nothing and cannot perturb what it measures. *)
let minor_words () = int_of_float (Gc.minor_words ())
