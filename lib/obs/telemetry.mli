(** The fleet telemetry plane: sharded per-pid verification statistics,
    the fast-path decision ledger, and periodic time-series snapshots.

    Every monitored system call resolves its call-MAC verification through
    exactly one of the fast/slow paths, or is denied. The checker reports
    that resolution here as a compact {!reason} code, together with the
    call's site and its modeled verification cycles. The plane keeps the
    data {e sharded by pid} — each process owns its shard and only its
    shard is touched on the trap path — so aggregation is a read-side walk
    over shards ({!aggregate}) built on an explicit, order-insensitive,
    count-conserving {!merge}. This is exactly the state layout a
    multi-domain fleet kernel needs: writers never share a shard, and the
    reader merges immutable {!stats} snapshots.

    {b Exhaustiveness invariant}: for a kernel whose monitor records from
    the first trap on, the sum of all reason counts in {!aggregate} equals
    the number of monitored calls (every trap records exactly one code —
    the tests and the [BENCH_telemetry] gate assert this).

    {b Self-overhead}: recording is not free. The checker charges
    [Svm.Cost_model.telemetry_record_cost] modeled cycles per recorded
    call and reports the charge via [~self]; the plane accumulates it so
    the observability overhead itself is observable (and gated, at <1% of
    verification cycles, by [BENCH_telemetry.json]). *)

(** Why a precompiled-site table consulted on the trap did not decide the
    call (the reference path's full CMAC then verified it). *)
type fallback =
  | F_no_entry  (** no compiled entry for the site (first visit, or
                    flushed by the per-pid bound) *)
  | F_statics   (** a structural field changed: number, descriptor, block
                    id or argument shape *)
  | F_tag       (** the resumed MAC did not match the supplied tag (the
                    slow path re-checks and decides the deny) *)

(** How a monitored call's verification was resolved — exactly one code
    per call. *)
type reason =
  | Precomp_hit               (** precompiled-site memo equality *)
  | Precomp_resumed           (** streaming-CMAC resume over the suffix *)
  | Precomp_fallback of fallback
      (** a precomp table was armed but did not decide; the reference
          path's CMAC verified the call *)
  | Vcache_hit                (** a verified-MAC cache hit on the call MAC;
                                  no longer produced, since the vcache
                                  caches only authenticated strings *)
  | Slow_path                 (** reference checker: full CMAC
                                  recomputation *)
  | Deny of string            (** the call was denied; payload is the
                                  violation step name *)

val num_reasons : int
(** Number of distinct reason buckets (fallback causes counted
    separately, all [Deny] steps folded into one bucket). *)

val reason_index : reason -> int
(** Stable index in [0, num_reasons): the per-shard and per-site count
    arrays are indexed by it. *)

val reason_label : reason -> string
(** Short machine-stable label ([precomp_hit], [fallback_no_entry],
    [deny], ...). *)

val reason_labels : string array
(** Labels by {!reason_index} — the exhaustive bucket list, used by the
    exporters and the schema self-checks. *)

(** How a monitored call's control-flow step (predecessor check + lbMAC
    update) was resolved — the second exhaustive per-call dimension,
    orthogonal to {!reason} (which reports the call-MAC resolution).
    Exactly one code per call. *)
type cf_reason =
  | Cf_none               (** no control-flow policy on the call, or no
                              cfpre table armed *)
  | Cf_hit                (** precompiled bitset decided the predecessor
                              check; lbMAC refreshed via the amortized
                              chain *)
  | Cf_slow               (** cfpre armed but no compiled entry for the
                              site — full slow-path step 3 (which may then
                              compile one) *)
  | Cf_fallback_ref       (** the live predecessor reference differs from
                              the compiled one; slow path decided *)
  | Cf_fallback_contents  (** the reference matched but the guest bytes
                              changed; slow path decided (and denies) *)

val num_cf_reasons : int

val cf_index : cf_reason -> int
(** Stable index in [0, num_cf_reasons). *)

val cf_label : cf_reason -> string

val cf_labels : string array
(** Labels by {!cf_index} ([cf_none], [cf_hit], ...). *)

(** {1 The plane and its shards} *)

type t
type shard

type ledger_entry = {
  le_site : int;
  le_sem : string;            (** resolved syscall name, or [syscall#N] *)
  le_reason : reason;
  le_cycles : int;            (** modeled verification cycles of the call *)
  le_alloc : int;             (** host minor words the verification allocated *)
  le_ts : int;                (** machine cycle timestamp *)
}

val create : ?ring_capacity:int -> ?buckets:int list -> ?alloc_buckets:int list -> unit -> t
(** [ring_capacity] (default 256) bounds each pid's decision ledger;
    [buckets] (default [Metrics.log_linear_buckets ~lo:100 ~hi:1_000_000])
    are the shared bounds of every per-syscall verification-cycles
    histogram — shared so shard merge is element-wise. [alloc_buckets]
    (default [log_linear_buckets ~lo:10 ~hi:1_000_000]) are the separate
    bounds of the per-call minor-words histograms, scaled down because a
    verified call allocates orders of magnitude fewer words than it
    spends cycles. *)

val shard : t -> pid:int -> shard
(** The pid's live shard, created on first use (the kernel calls this
    from [spawn]). *)

val record :
  t -> ?cf:cf_reason -> shard -> site:int -> sem:string -> reason:reason -> cycles:int ->
  alloc:int -> now:int -> unit
(** The hot-path write: bump the shard's reason/site/syscall statistics
    and alloc rollups ([alloc] = host minor words the call's verification
    allocated), append to its ledger ring, and (when an emitter is armed)
    cut a snapshot if [now] crossed the emission interval. Touches only
    the one shard plus plane-global counters. *)

val note_self : t -> shard -> int -> unit
(** Account [n] modeled cycles of telemetry self-overhead (the
    [telemetry_record_cost] the checker charged to the machine). *)

val retire_pid : t -> pid:int -> unit
(** Fold the pid's live shard into the plane's retired aggregate and drop
    it (called at process teardown). Aggregates are conserved: a retired
    pid's counts remain visible in {!aggregate}; only its ledger ring is
    released. *)

val ledger : t -> pid:int -> ledger_entry list
(** The pid's retained decision ledger, oldest first (empty after
    {!retire_pid}). *)

val live_pids : t -> int list
(** Pids with a live shard, sorted. *)

(** {1 Aggregation} *)

(** Mergeable histogram: counts over shared bucket bounds (last slot =
    overflow), plus exact sum/count. *)
type hist = {
  q_counts : int array;
  q_sum : int;
  q_count : int;
}

(** An immutable aggregate of one or more shards. All maps are sorted
    assoc lists so equal aggregates compare structurally equal. *)
type stats = {
  t_shards : int;                      (** shards folded in *)
  t_calls : int;                       (** monitored calls recorded *)
  t_cycles : int;                      (** verification cycles recorded *)
  t_self_cycles : int;                 (** telemetry's own charged cycles *)
  t_alloc_words : int;                 (** minor words recorded ([t_alloc] sum) *)
  t_reasons : int array;               (** indexed by {!reason_index} *)
  t_cf : int array;                    (** indexed by {!cf_index} *)
  t_deny_steps : (string * int) list;  (** violation step name -> denies *)
  t_per_sem : (string * hist) list;    (** syscall name -> cycle histogram *)
  t_sites : (int * int array) list;    (** site -> per-reason counts *)
  t_site_alloc : (int * int) list;     (** site -> minor words rollup *)
  t_alloc : hist;                      (** per-call minor words (alloc bounds) *)
}

val hist_snapshot : t -> hist -> Metrics.histogram_snapshot
(** View over the plane's cycle bounds, for {!Metrics.quantile}. *)

val alloc_hist_snapshot : t -> hist -> Metrics.histogram_snapshot
(** View over the plane's alloc (minor-words) bounds. *)

val empty_stats : stats
val stats_of_shard : t -> shard -> stats

val merge : stats -> stats -> stats
(** Pointwise sum. Commutative and associative up to structural equality,
    and count-conserving: every scalar, array slot and assoc value of the
    result is the sum of its operands' (the QCheck property in
    [test_telemetry] pins both). *)

val aggregate : t -> stats
(** Retired aggregate ⊕ every live shard. *)

val reasons_total : stats -> int
(** Sum of every reason bucket — equals [t_calls] by construction (the
    exhaustiveness invariant). *)

val cf_total : stats -> int
(** Sum of every control-flow bucket — likewise equals [t_calls] (every
    recorded call carries exactly one {!cf_reason}, [Cf_none]
    included). *)

(** {1 Snapshots (time series)} *)

val set_emitter : t -> interval:int -> unit
(** Arm the periodic snapshot emitter: whenever a recorded call's [now]
    timestamp crosses a multiple of [interval] virtual cycles, one
    time-series row is cut. Each row carries the virtual timestamp,
    cumulative and per-interval call/deny/cycle/minor-word counters,
    per-reason cumulative counts and p50/p95/p99 of the interval's
    verification cycles (quantiles over the bucket deltas since the
    previous row).
    @raise Invalid_argument when [interval < 1]. *)

val snapshots : t -> Json.t list
(** Rows cut so far, oldest first. *)

val snapshots_jsonl : t -> string
(** One compact JSON object per line. *)

val self_cycles : t -> int
val records : t -> int

(** {1 Export} *)

val stats_to_json : t -> stats -> Json.t
(** Full aggregate: totals (cycles and minor words), reason buckets (all
    {!reason_labels}, zeros included, plus a [reasons_total] the consumers
    can check against [calls]), deny steps, per-syscall cycle quantiles,
    fleet-wide per-call alloc quantiles, per-site rollups (reason counts
    plus [alloc_words]). *)
