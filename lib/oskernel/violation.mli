(** Structured security violations and the forensic snapshot captured when
    the kernel kills a process.

    The paper's monitor terminates a process on any verification failure;
    this module makes the *report* of that failure a first-class artifact:
    which verification step failed ({!step}), where, on which call, with the
    expected-vs-got MAC prefixes when a MAC comparison was involved — plus a
    {!snapshot} of the machine at deny time (registers, recent syscall
    history, control-flow policy state) so an investigator can reconstruct
    what the process was doing without re-running it. *)

(** The verification step that failed. The first three mirror the checker's
    §3.4 pipeline; [Unauthenticated] is the descriptor-marker gate before
    step 1; [Pattern], [Normalization] and [Ext] are the §5 extensions. *)
type step =
  | Call_mac          (** step 1: encoded-call rebuild / call-MAC compare *)
  | String_mac        (** step 2: authenticated-string contents *)
  | Control_flow      (** step 3: predecessor set / lbMAC state checker *)
  | Unauthenticated   (** descriptor marker absent: foreign or injected site *)
  | Pattern           (** §5.1 argument-pattern mismatch *)
  | Normalization     (** §5.4 pathname normalization changed the argument *)
  | Ext               (** §5 extension block: value sets, malformed blocks *)

val step_name : step -> string
(** Stable lower-snake-case name ([call_mac], [string_mac], ...). *)

val step_of_name : string -> step option

val all_steps : step list

val attack_class : step -> string
(** The §4.1 attack class whose forensic signature the step is:
    [Unauthenticated] is shellcode (an injected, never-installed site);
    [Call_mac] and [Control_flow] are mimicry (replayed or re-sequenced
    authenticated calls); [String_mac], [Pattern] and [Ext] are
    non-control-data (argument tampering without control-flow hijack);
    [Normalization] is the §5.4 symlink race. *)

type t = {
  v_step : step;
  v_site : int;                   (** address of the trapping [Sys] *)
  v_number : int;                 (** raw trap number *)
  v_sem : string option;          (** resolved syscall name, when known *)
  v_reason : string;              (** human-readable detail (the legacy string) *)
  v_expected_mac : string option; (** hex prefix of the MAC the kernel computed *)
  v_got_mac : string option;      (** hex prefix of the MAC the process supplied *)
}

(** One entry of the recent-syscall history embedded in a snapshot. *)
type call = {
  c_name : string;
  c_number : int;
  c_site : int;
  c_result : int;
}

(** Machine and policy state at deny time, captured by the kernel before the
    process is torn down. [sn_last_block]/[sn_lb_mac] are best-effort reads
    of the application-held policy state at the lbMAC pointer (r10); they
    are [None] when that memory is unreadable (e.g. the register holds
    garbage because the call site was injected). *)
type snapshot = {
  sn_regs : int array;            (** r0..r11 at trap time *)
  sn_pc : int;
  sn_cycles : int;
  sn_instrs : int;
  sn_counter : int;               (** kernel-held nonce counter (§3.3) *)
  sn_last_block : int option;     (** lastBlock word at the lbMAC pointer *)
  sn_lb_mac : string option;      (** hex of the 16-byte lbMAC *)
  sn_recent : call list;
  (** tail of the kernel trace ring, oldest first. The ring is written
      only while [Kernel.tracing] is on, so an untraced deny records no
      recent calls. *)
}

val snapshot_regs : int
(** Number of registers captured (12: r0..r11 — the argument, descriptor
    and policy-pointer registers the checker consumes). *)

val to_string : t -> string
(** One-line rendering: step, site, number and reason. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Asc_obs.Json.t
val of_json : Asc_obs.Json.t -> (t, string) result
(** [of_json (to_json v) = Ok v]. *)

val snapshot_to_json : snapshot -> Asc_obs.Json.t
val snapshot_of_json : Asc_obs.Json.t -> (snapshot, string) result
(** [snapshot_of_json (snapshot_to_json s) = Ok s]. *)
