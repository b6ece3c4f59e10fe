(** Kernel-side system-call checking (§3.4) — the counterpart of the 248
    lines the paper adds to the Linux software trap handler.

    On every trap the checker: (1) rebuilds the *encoded call* from the
    call's actual behavior — trap number, trap site, the five extra
    arguments in r7–r11, and the constrained argument registers — and
    compares its MAC against the call MAC supplied by the application;
    (2) verifies the contents of every authenticated-string argument
    (including the predecessor set and any §5 extension block);
    (3) verifies and updates the control-flow policy state using the online
    memory checker: [lbMAC = MAC(counter ++ lastBlock)] with the nonce
    counter held in kernel memory ({!Oskernel.Process.t}'s [counter]).

    Any failure terminates the process with a structured
    [Kernel.Deny_violation] naming the failing step
    ({!Oskernel.Violation.step}) and, for MAC comparisons, hex prefixes of
    the expected and supplied tags; unauthenticated calls (descriptor
    marker absent) are likewise blocked. The checker charges
    the modeled verification cycles ({!Svm.Cost_model}) to the machine, so
    the Table 4/6 benchmarks reflect its cost.

    Every charged cycle is also attributed to exactly one per-step counter
    in the kernel's metrics registry — [checker.cycles.call_mac],
    [checker.cycles.string_mac], [checker.cycles.control_flow] and
    [checker.cycles.ext] — alongside [checker.cycles.total] and
    [checker.calls_verified], so the per-step breakdown always sums to the
    modeled total (the Table 4 decomposition).

    Every monitored call additionally records exactly one
    {!Asc_obs.Telemetry.reason} code — how its call MAC was resolved
    (precomp hit/resume, precomp fallback by cause, or the reference
    slow path) or which step denied it — into the kernel's telemetry plane
    ({!Oskernel.Kernel.telemetry}), together with the call's verification
    cycles (the [checker.cycles.total] delta). The recording itself
    charges [Svm.Cost_model.telemetry_record_cost] to the machine,
    credited to the plane's self-overhead meter but {e not} to the
    checker's step counters, so the Table 4 decomposition stays
    verification-only. *)

(** The deployed fast path: three layers in front of the reference
    checker, armed as one unit.
    - {!Precomp} decides every repeated call MAC: a memo hit, or a
      streaming-CMAC resume over the dynamic suffix. It is charged
      [Svm.Cost_model.precomp_hit_cost], respectively
      [precomp_lookup_cost + mac_resume_cost], and never serializes the
      encoded call.
    - {!Cfpre} decides the predecessor check with a compiled bitset. The
      nonce-fresh lbMAC is verified with one AES block and refreshed with
      one more; the fresh tag is computed and written, and the counter
      advanced, on every call, so §3.4 freshness is untouched. The verify
      block is skipped when the kernel-held counter, the live lastBlock
      and the live lbMAC all equal the monitor's memo of its own last
      write-back. That memo holds a tag the kernel computed over exactly
      that counter and block, a fact about the key rather than a pid, so
      the check must pass; any other state takes the AES check. The memo
      is one per monitor, so interleaved processes only fall back to AES.
      The skipped block is still charged [lbmac_chain_cost]: guests read
      modeled time, which must not reveal another process's traps, and
      lowering the charge waits on a refit of the cost model.
    - {!Vcache} remembers verified authenticated strings (arguments,
      extension blocks, and predecessor sets on a cfpre miss).

    All three keep their entries in a {!Pid_table}: one table per pid,
    one bound, dropped on execve and exit. Precomp and cfpre also file
    each first verified entry in one table shared by every process, keyed
    by (site, block id) and never dropped ({!Pid_table.Shared}). A pid's
    first visit to a site another process verified is decided by the
    same live compares against that fact, so the host skips the call
    CMAC, the predecessor-set MAC and the full lbMACs. The pid's tables
    still decide every charge: that first visit is charged, counted and
    labelled as the slow path, with the pid's own vcache probe on the
    predecessor set, so a process's modeled time is a function of its own
    traps.

    Each layer accepts only inputs under which the reference path would
    verify the same bytes. Anything else falls back to the reference path,
    which decides, so verdicts and denies are byte-identical with the
    fast path on or off. *)
type fastpath = {
  vcache : Vcache.t;
  precomp : Precomp.t;
  cfpre : Cfpre.t;
}

val fastpath : key:Asc_crypto.Cmac.key -> Oskernel.Kernel.t -> fastpath
(** Fresh, empty layers publishing their counters into the kernel's
    metrics registry. [key] must be the checker's. *)

val monitor :
  kernel:Oskernel.Kernel.t ->
  key:Asc_crypto.Cmac.key ->
  ?normalize_paths:bool ->
  ?vcache:Vcache.t ->
  ?precomp:Precomp.t ->
  ?cfpre:Cfpre.t ->
  unit ->
  Oskernel.Kernel.monitor
(** [normalize_paths] additionally resolves every verified pathname
    argument through the VFS and denies the call when normalization
    changes it (the §5.4 symlink-race defense). Default [false].

    [vcache], [precomp] and [cfpre] arm the {!fastpath}. Pass all three
    or none; none is the paper's reference checker. The monitor
    registers one kernel lifecycle hook: execve and teardown drop the
    pid's entries in all three layers (spawn needs nothing, since a pid's
    first entry creates its tables); the shared facts stay. [precomp]
    must be created with the same [key].
    @raise Invalid_argument when given a strict subset of the three. *)

val monitor_with :
  kernel:Oskernel.Kernel.t ->
  key:Asc_crypto.Cmac.key ->
  ?normalize_paths:bool ->
  fastpath option ->
  Oskernel.Kernel.monitor
(** {!monitor} with the fast path given as one value: [Some fp] arms it,
    [None] is the reference checker. *)
