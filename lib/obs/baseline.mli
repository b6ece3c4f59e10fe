(** Baseline regression checking for exported benchmark documents.

    A baseline is a previously committed JSON snapshot of a benchmark
    table (a [BENCH_<table>.json] file). {!compare} diffs a freshly
    produced document against it: the *schema* must match exactly — same
    object keys, same list lengths, same value kinds, identical strings,
    booleans and nulls — while *numeric* leaves may drift within a
    relative tolerance. This is what lets the deterministic cycle model
    act as a regression gate: a refactor that shifts a table's numbers
    beyond tolerance (or changes its shape at all) fails the benchmark
    run instead of silently rewriting history. *)

val compare :
  tolerance:float ->
  ?tolerance_abs:float ->
  baseline:Json.t ->
  actual:Json.t ->
  unit ->
  (unit, string list) result
(** [compare ~tolerance ~baseline ~actual ()] is [Ok ()] when [actual]
    matches [baseline] as described above. [tolerance] is a percentage:
    a numeric leaf passes when
    [|actual - baseline| <= tolerance/100 * max(|baseline|, |actual|, 1)]
    (the [1] floor keeps near-zero values from demanding exact equality).
    [tolerance_abs] (default 0) is a global absolute floor: a numeric
    leaf also passes when [|actual - baseline| <= tolerance_abs] — the
    sane gate for fields whose expected value is at or near zero, where
    any drift is an enormous percentage. A leaf passes on {e either}
    criterion. [Int] and [Float] are numerically interchangeable. On
    mismatch, returns every offending leaf as a ["$.path: reason"]
    message. *)
