(* The §4.1 attack experiments, live.

   The victim reads a file name into a 32-byte stack buffer through an
   unbounded read and then runs /bin/ls on it. Each attack is mounted twice:
   against the unprotected binary (it succeeds — the vulnerability is real)
   and against the authenticated binary under the in-kernel checker (it is
   blocked). Finally the §5.5 Frankenstein composition demonstrates the
   single-application-confinement guarantee.

   Run with: dune exec examples/attack_demo.exe *)

let show name (description : string)
    (f : ?fastpath:bool -> protected:bool -> unit -> Attacks.outcome) =
  Format.printf "@.=== %s ===@.%s@." name description;
  Format.printf "  unprotected:   %a@." Attacks.pp_outcome (f ~protected:false ());
  Format.printf "  authenticated: %a@." Attacks.pp_outcome (f ~protected:true ())

let () =
  Format.printf "victim: reads a filename into char buf[32] via an unbounded read,@.";
  Format.printf "then execs /bin/ls — stdin is attacker-controlled.@.";

  show "shellcode injection"
    "overflow the buffer, overwrite the return address, run injected code\n\
     that issues execve(\"/bin/sh\")" Attacks.shellcode;

  show "mimicry via foreign authenticated calls"
    "splice a complete authenticated call sequence (movi r7..r11; sys)\n\
     copied from another installed application into the stack"
    Attacks.mimicry;

  show "non-control-data"
    "no control-flow hijack: overwrite the execve argument \"/bin/ls\"\n\
     with \"/bin/sh\" in process memory" Attacks.non_control_data;

  Format.printf "@.=== Frankenstein (§5.5) ===@.";
  Format.printf
    "a program composed of authenticated calls from applications A and B:@.";
  Format.printf "  cross-application chain: %a@." Attacks.pp_outcome
    (Attacks.frankenstein ~cross:true ());
  Format.printf "  single-application chain: %a@." Attacks.pp_outcome
    (Attacks.frankenstein ~cross:false ());
  Format.printf
    "-> a Frankenstein program is forced to execute the calls of a single@.";
  Format.printf "   application only, as the paper concludes.@."
