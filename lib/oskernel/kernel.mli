(** The simulated kernel: system-call dispatch, the software trap handler,
    and the monitor hook where the paper's 248-line kernel modification
    plugs in.

    The kernel exposes a single [monitor] slot invoked on every trap before
    dispatch. The authenticated-system-call checker ([Asc_core.Checker])
    registers here, as does the Systrace-style user-space baseline; a
    machine with no monitor runs unprotected, which is the paper's
    "original binaries" baseline. *)

type verdict =
  | Allow
  | Deny of string  (** process is terminated; reason is audited *)
  | Deny_violation of Violation.t
      (** Like [Deny] but structured: the kernel audits a {!Violation}
          entry carrying the failing verification step. The kill reason
          is the violation's [v_reason]. The kernel overwrites
          [v_site]/[v_number] with the actual trap coordinates and
          resolves [v_sem] when the monitor left it [None]. *)

type monitor = {
  monitor_name : string;
  pre_syscall : Process.t -> site:int -> number:int -> verdict;
      (** Called with the trap site (address of the [Sys] instruction) and
          raw trap number before dispatch. May read/write process memory
          (policy state updates) and charge cycles to the machine. *)
  post_syscall : Process.t -> site:int -> sem:Syscall.sem option -> result:int -> unit;
      (** Called after dispatch with the resolved operation and its result;
          used by capability tracking (§5.3) to observe returned file
          descriptors. *)
}

val no_post : Process.t -> site:int -> sem:Syscall.sem option -> result:int -> unit
(** A post hook that does nothing. *)

(** Process lifecycle notifications, delivered to {!add_lifecycle_hook}
    subscribers. Monitors that keep per-pid state subscribe here:
    [Proc_spawn] fires from {!spawn} once the image is loaded and the pid
    assigned; [Proc_exec] fires after [execve] replaced the image any
    cached facts were derived from;
    [Proc_exit] fires when {!run} ends in a terminal stop (halt, kill or
    fault — not a resumable cycle-limit stop), after which the pid could
    in principle be reused. *)
type lifecycle =
  | Proc_spawn of { pid : int }
  | Proc_exec of { pid : int }
  | Proc_exit of { pid : int }

val compose_monitors : string -> monitor list -> monitor
(** Run pre hooks in order (first [Deny] wins) and all post hooks. *)

type trace_entry = {
  t_sem : Syscall.sem option;  (** [None] for unknown trap numbers *)
  t_number : int;
  t_site : int;
  t_args : int array;          (** r1..r6 at trap time *)
  t_result : int;
}

(** Structured audit events: what the kernel records about security-
    relevant outcomes. Consumers match on the variant (or export it as
    JSON) instead of string-parsing pre-formatted log lines. *)
type audit_entry =
  | Denied of { pid : int; program : string; site : int; number : int; reason : string }
      (** an unstructured monitor (e.g. Systrace, capability tracking)
          denied the call *)
  | Execve of { pid : int; program : string; path : string }
      (** [program] is the image that issued the call, [path] the image
          exec'd into *)
  | Violation of { pid : int; program : string; violation : Violation.t }
      (** a structured deny: which verification step failed, where, and
          the MAC prefixes involved *)

val audit_to_string : audit_entry -> string
(** The traditional one-line rendering. *)

val audit_to_json : audit_entry -> Asc_obs.Json.t
(** Uniform schema: every variant carries ["kind"], ["pid"] and
    ["program"]; call-shaped variants share ["site"]/["number"]; the
    violation variant flattens {!Violation.json_fields} into the
    envelope. *)

type t = {
  vfs : Vfs.t;
  pers : Personality.t;
  obs : Asc_obs.Metrics.registry;       (** per-kernel metrics; see {!metrics} *)
  telemetry : Asc_obs.Telemetry.t;
  (** always-on fleet telemetry plane: per-pid shards are created by
      {!spawn} and retired (folded into the plane's aggregate) when {!run}
      ends in a terminal stop. The checker records one decision reason per
      monitored call here; see {!telemetry}. *)
  spans : Asc_obs.Trace.t;              (** per-syscall spans (cycle timestamps) *)
  trace : trace_entry Asc_obs.Ring.t;   (** bounded; see {!trace} *)
  audit : audit_entry Asc_obs.Ring.t;   (** bounded; see {!audit_log} *)
  mutable next_pid : int;
  mutable monitor : monitor option;
  mutable tracing : bool;               (** gates the trace ring and span collector *)
  mutable lifecycle_hooks : (lifecycle -> unit) list;
  (** subscribers to process lifecycle events; see {!add_lifecycle_hook} *)
  mutable spare : Svm.Machine.t option;
  (** the machine of the last process that ended in a terminal stop; the
      next {!spawn} takes over its memory. See {!spawn} for the ownership
      rule. *)
  ctr_syscalls : Asc_obs.Metrics.counter;
  ctr_allowed : Asc_obs.Metrics.counter;
  ctr_denied : Asc_obs.Metrics.counter;
  ctr_vm_instrs : Asc_obs.Metrics.counter;
  (** [svm.instructions] in {!metrics}: instructions retired under this
      kernel, mirrored from machine deltas by {!run} so kernels with
      separate registries never bleed into each other. *)
  ctr_vm_cycles : Asc_obs.Metrics.counter;   (** likewise [svm.cycles] *)
  ctr_host_minor_words : Asc_obs.Metrics.counter;
  (** [kernel.host_minor_words]: host minor-heap words allocated while
      this kernel's processes ran (interpreter + checker + telemetry),
      measured as [Gc.minor_words] deltas around {!run}. *)
  hist_syscall_cycles : Asc_obs.Metrics.histogram;
  sem_counters : Asc_obs.Metrics.counter option array;  (** by [Syscall.index] *)
}

val create :
  ?personality:Personality.t -> ?obs:Asc_obs.Metrics.registry -> ?trace_capacity:int ->
  ?audit_capacity:int -> unit -> t
(** Fresh kernel (default personality {!Personality.linux}) with an empty
    filesystem containing [/], [/tmp], [/etc], [/bin], [/dev]. By default
    every kernel gets its own metrics registry so concurrent benchmark
    runs stay isolated; pass [obs] to share one. [trace_capacity]
    (default 65536) and [audit_capacity] (default 4096) bound the
    retention of the trace and audit rings — total counts survive
    eviction via {!syscall_count} / [Asc_obs.Ring.pushed]. *)

val metrics : t -> Asc_obs.Metrics.registry

val telemetry : t -> Asc_obs.Telemetry.t
(** The kernel's fleet telemetry plane (always on; empty unless a monitor
    records into it). *)

val spans : t -> Asc_obs.Trace.t

val syscall_count : t -> int
(** Traps taken since creation (monitored-and-denied ones included),
    independent of tracing and of ring eviction. *)

val denied_count : t -> int

val set_monitor : t -> monitor option -> unit

val add_lifecycle_hook : t -> (lifecycle -> unit) -> unit
(** Subscribe to {!lifecycle} events; hooks run in subscription order,
    synchronously, from {!spawn} ([Proc_spawn]), from [execve] dispatch
    ([Proc_exec]) and from the tail of {!run} ([Proc_exit]). *)

val install_binary : t -> path:string -> Svm.Obj_file.t -> unit
(** Serialize a SEF image into the VFS so [execve] can load it. *)

val spawn :
  t -> ?stdin:string -> ?libs:Svm.Obj_file.t list -> program:string -> Svm.Obj_file.t ->
  Process.t
(** Create a process running the given image. [libs] are shared-library
    images mapped into the address space at their fixed (prelinked) bases;
    their sections must not overlap the program's or each other's.

    Memory ownership: when {!run} ends a process in a terminal stop, the
    kernel keeps its machine in [spare]. [spawn] first checks the image
    and every library section, [Bss] included, against memory and the
    libraries for overlaps; only then does it take over the spare
    machine's 4 MiB buffer ({!Svm.Machine.take_over}) and load the image
    into it ({!Svm.Loader.load_into}). With no spare it allocates a fresh
    buffer. So a terminated process's memory stays readable through its
    {!Process.t} until the next spawn on the same kernel that succeeds; a
    refused spawn leaves the spare where it was. After that the old
    machine has empty memory: its reads return [None] and running it
    faults, and it never sees the new process's bytes. The new process
    starts on memory that equals a fresh load either way.

    Cost: reusing the spare zeroes only the pages the exited process
    wrote, which the machine's dirty map records: a scan of the map's
    1,024 bytes plus 4 KiB per written page, where the perfbench
    workloads write 5-25 pages. On a 2-vCPU Intel Xeon that is about
    8 µs a spawn, against about 0.2 ms to zero all 4 MiB and 1.3 ms to
    allocate a fresh buffer next to a 20 MiB heap.
    @raise Invalid_argument on a malformed image, a section outside
    memory or an overlap. *)

val run : t -> Process.t -> max_cycles:int -> Svm.Machine.stop
(** Run the process to completion (exit, fault, kill or cycle budget). A
    terminal stop (halt, kill or fault, not a cycle-limit stop) fires
    [Proc_exit] and parks the process's machine in [spare], where its
    memory stays readable until the next {!spawn} takes it over. A machine
    whose memory was already taken is not parked again. *)

val trace : t -> trace_entry list
(** Retained trace, oldest first (at most [trace_capacity] entries). *)

val clear_trace : t -> unit
(** Empties the trace ring and the span collector. *)

val audit_log : t -> audit_entry list
(** Retained audit entries, oldest first. *)

val clear_audit : t -> unit

val stdout_of : Process.t -> string
val stderr_of : Process.t -> string
