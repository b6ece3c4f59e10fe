(** Structured security violations: the report of why the kernel killed a
    process.

    The paper's monitor terminates a process on any verification failure;
    this module makes the *report* of that failure typed: which
    verification step failed ({!step}), where, on which call, with the
    expected-vs-got MAC prefixes when a MAC comparison was involved. *)

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

val all_steps : step list

val attack_class : step -> string
(** The §4.1 attack class a deny at this step signals:
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

val to_string : t -> string
(** One-line rendering: step, site, number and reason. *)

val pp : Format.formatter -> t -> unit

val json_fields : t -> (string * Asc_obs.Json.t) list
(** The entry's JSON object fields: [step], [site], [number], [sem],
    [reason], [expected_mac] and [got_mac]. *)
