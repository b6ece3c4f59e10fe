(** The attack experiments of §4.1 and §5.5.

    The victim is the paper's: a program that reads a file name into a
    32-byte stack buffer through an unbounded read and then invokes
    [/bin/ls]. The attacker controls stdin, knows the binary (the threat
    model grants access to source, binary, debuggers and simulators) and
    smashes the stack to divert control.

    Three §4.1 attacks, each run unprotected (must succeed — the baseline
    vulnerability is real) and under authenticated system calls (must be
    blocked):
    - {!shellcode}: inject code that issues [execve("/bin/sh")];
    - {!mimicry}: reuse a complete authenticated call sequence copied from
      another installed application;
    - {!non_control_data}: overwrite the [execve] argument string
      ["/bin/ls"] with ["/bin/sh"] in place (no control-flow hijack).

    Plus §5.5's {!frankenstein}: a program composed of authenticated calls
    from two applications; with globally unique block ids it is forced to
    execute the calls of a single application only. *)

type block = {
  b_reason : string;  (** the kill reason, verbatim *)
  b_step : Oskernel.Violation.step option;
      (** which verification step refused the call, from the kernel's
          structured audit entry; [None] when the deny came from an
          unstructured monitor *)
}

type outcome =
  | Succeeded of string  (** attacker's goal reached; payload = evidence *)
  | Blocked of block     (** monitor killed the process *)
  | Crashed of string    (** process faulted before reaching the goal *)

val pp_outcome : Format.formatter -> outcome -> unit

val key : Asc_crypto.Cmac.key
(** The install/verification key shared by every attack experiment. *)

(** Each protected run additionally asserts (raising [Failure] otherwise)
    that the structured violation step is the one the attack is supposed
    to trip: shellcode ⇒ [Unauthenticated], mimicry ⇒ [Call_mac] (the
    spliced site address breaks the rebuilt encoded call), non-control
    data ⇒ [String_mac], cross-application Frankenstein ⇒
    [Control_flow]. *)

(** [fastpath] (default [false]) arms the checker's deployed fast path
    ({!Asc_core.Checker.fastpath}: vcache, precomp and cfpre). Each layer
    accepts only inputs under which the reference checker would verify
    the same bytes, and anything else falls back to the reference path,
    so every attack must trip the exact same violation step with it on —
    the deny parity that [bench/main.exe parity] gates. With the fast
    path, a benign run of the same installed images goes first on the
    attack's kernel, so the attack meets the facts that run left in the
    shared tables.
    @raise Failure if that benign run does not exit cleanly. *)

val shellcode : ?fastpath:bool -> protected:bool -> unit -> outcome

val mimicry : ?fastpath:bool -> protected:bool -> unit -> outcome

val non_control_data : ?fastpath:bool -> protected:bool -> unit -> outcome

val expected_steps : (string * Oskernel.Violation.step list) list
(** attack name ⇒ acceptable violation steps, as asserted by the runs. *)

val frankenstein : ?fastpath:bool -> cross:bool -> unit -> outcome
(** [cross:true] splices application B's authenticated call after
    application A's chain (must be blocked); [cross:false] runs B's own
    chain alone from start (allowed — the Frankenstein program is confined
    to a single application's calls, the paper's stated guarantee). *)
