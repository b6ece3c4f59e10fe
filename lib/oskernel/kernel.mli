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
          entry carrying the failing verification step and a forensic
          snapshot captured before teardown. The kill reason is the
          violation's [v_reason]. The kernel overwrites [v_site]/[v_number]
          with the actual trap coordinates and resolves [v_sem] when the
          monitor left it [None]. *)

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
  | Violation of {
      pid : int;
      program : string;
      violation : Violation.t;
      snapshot : Violation.snapshot;
    }  (** a structured deny: which verification step failed, plus the
           machine/policy state at deny time *)
  | Alert of {
      pid : int;          (** 0 for fleet-scope alerts *)
      program : string;   (** alert source, e.g. ["fleet"] *)
      rule : string;      (** the {!Asc_obs.Health} rule name *)
      event : string;     (** transition: armed / disarmed / fired / cleared *)
      ts : int;           (** virtual-cycle timestamp of the snapshot row *)
      value : float;      (** the evaluated signal *)
      threshold : float;
    }  (** a fleet-health rule transition ({!Asc_obs.Health}), recorded so
           SLO incidents are tamper-evident alongside violations *)

val audit_to_string : audit_entry -> string
(** The traditional one-line rendering. *)

val audit_to_json : audit_entry -> Asc_obs.Json.t
(** Uniform schema: every variant carries ["kind"], ["pid"] and
    ["program"]; call-shaped variants share ["site"]/["number"]; the
    violation variant flattens {!Violation.to_json} into the envelope and
    nests the snapshot under ["snapshot"]. *)

val audit_of_json : Asc_obs.Json.t -> (audit_entry, string) result
(** Inverse of {!audit_to_json}: [audit_of_json (audit_to_json e) = Ok e]. *)

val snapshot_history : int
(** Number of trace-ring entries embedded in a forensic snapshot (8). *)

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
  mutable authlog : Asc_obs.Authlog.t option;
  (** when set, every audit entry is also appended to this tamper-evident
      CMAC chain; see {!set_authlog} *)
  mutable lifecycle_hooks : (lifecycle -> unit) list;
  (** subscribers to process lifecycle events; see {!add_lifecycle_hook} *)
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
  sem_counters : (Syscall.sem, Asc_obs.Metrics.counter) Hashtbl.t;
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

val set_authlog : t -> Asc_obs.Authlog.t option -> unit
(** Attach (or detach) a tamper-evident audit chain. While attached, every
    audit entry's JSON rendering is appended to the chain as it is pushed
    to the ring; {!clear_audit} empties the ring but never rewrites the
    chain — the chain is the part the process under test cannot undo. *)

val authlog : t -> Asc_obs.Authlog.t option

val install_binary : t -> path:string -> Svm.Obj_file.t -> unit
(** Serialize a SEF image into the VFS so [execve] can load it. *)

val spawn :
  t -> ?stdin:string -> ?libs:Svm.Obj_file.t list -> program:string -> Svm.Obj_file.t ->
  Process.t
(** Create a process running the given image. [libs] are shared-library
    images mapped into the address space at their fixed (prelinked) bases;
    their sections must not overlap the program's or each other's.
    @raise Invalid_argument on a malformed image or an overlap. *)

val spawn_path : t -> ?stdin:string -> string -> (Process.t, string) result
(** Load and spawn the SEF binary installed at a VFS path. *)

val run : t -> Process.t -> max_cycles:int -> Svm.Machine.stop
(** Run the process to completion (exit, fault, kill or cycle budget). *)

val trace : t -> trace_entry list
(** Retained trace, oldest first (at most [trace_capacity] entries). *)

val clear_trace : t -> unit
(** Empties the trace ring and the span collector. *)

val audit_log : t -> audit_entry list
(** Retained audit entries, oldest first. *)

val clear_audit : t -> unit

val record_alert :
  t -> pid:int -> program:string -> rule:string -> event:string -> ts:int -> value:float ->
  threshold:float -> unit
(** Push an {!audit_entry.Alert} through the audit funnel: the bounded
    ring plus, when attached, the tamper-evident authlog chain — the same
    path denies and violations take, so fleet-health incidents share
    their integrity guarantees. Use [pid:0]/[program:"fleet"] for
    fleet-scope alerts. *)

val stdout_of : Process.t -> string
val stderr_of : Process.t -> string
