(** A metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Hot-path discipline: instruments are resolved by name once (at
    registration — kernel creation, monitor construction) and the returned
    handle is a bare mutable cell, so {!inc}/{!add}/{!observe} on the trap
    path are O(1) and allocation-free. Registries are independent; a fresh
    kernel gets a fresh registry so benchmark runs do not bleed into each
    other (including the per-kernel [svm.instructions]/[svm.cycles]
    mirrors), while truly process-wide layers (the PLTO passes, the
    installer gauges) publish into {!default}. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val default : registry
(** Process-wide registry for layers that have no natural owner. *)

(** {1 Registration} — get-or-create by name.
    @raise Invalid_argument if the name is already registered as a
    different instrument kind (or, for histograms, different buckets). *)

val counter : ?help:string -> registry -> string -> counter
val gauge : ?help:string -> registry -> string -> gauge

val histogram : ?help:string -> ?buckets:int list -> registry -> string -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing; an implicit
    overflow bucket catches the rest. The default buckets suit modeled
    cycle counts (100 .. 1_000_000, roughly logarithmic). *)

val log_linear_buckets : lo:int -> hi:int -> int list
(** HDR-style log-linear bucket bounds: within each decade [d, 10d) the
    bounds are the multiples of d, clipped to [lo, hi] and terminated by
    [hi] itself. The containing bucket of any value v <= hi is at most one
    leading-digit step wide, which bounds {!quantile}'s error by that
    bucket's width — i.e. a bounded relative error for values >= lo.
    @raise Invalid_argument when [lo < 1] or [hi <= lo]. *)

(** {1 Hot-path updates} *)

val inc : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val observe : histogram -> int -> unit

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> int

type histogram_snapshot = {
  h_buckets : (int * int) list;  (** (inclusive upper bound, count) *)
  h_overflow : int;              (** observations above the last bound *)
  h_count : int;
  h_sum : int;
}

val histogram_value : histogram -> histogram_snapshot

val quantile : histogram_snapshot -> float -> int
(** [quantile snap q] estimates the q-quantile (q in [0,1]) of the
    observations by locating the bucket of the ceil(q*count)-th smallest
    one and interpolating linearly within it. The estimate and the true
    observation share a bucket, so the absolute error is at most that
    bucket's width; observations beyond the last bound clamp to it. 0 when
    the histogram is empty.
    @raise Invalid_argument when q is outside [0,1]. *)

val value : registry -> string -> int option
(** Counter or gauge value by name; [None] if absent or a histogram. *)

val names : registry -> string list
(** Sorted. *)

val reset : registry -> unit
(** Zero every instrument; registrations (and handles) stay valid. *)

val to_json : registry -> Json.t
(** One object per instrument, sorted by name:
    [{"name","kind","value"}] for counters/gauges, and buckets/sum/count
    for histograms. *)
