open Svm
open Oskernel
module Cmac = Asc_crypto.Cmac

type block = {
  b_reason : string;
  b_step : Violation.step option;
}

type outcome =
  | Succeeded of string
  | Blocked of block
  | Crashed of string

let pp_outcome ppf = function
  | Succeeded e -> Format.fprintf ppf "SUCCEEDED (%s)" e
  | Blocked { b_reason; b_step = Some s } ->
    Format.fprintf ppf "BLOCKED[%s] (%s)" (Violation.step_name s) b_reason
  | Blocked { b_reason; b_step = None } -> Format.fprintf ppf "BLOCKED (%s)" b_reason
  | Crashed r -> Format.fprintf ppf "CRASHED (%s)" r

let key = Cmac.of_raw "attack-demo-key!"
let personality = Personality.linux

let num sem = Option.get (Personality.number_of personality sem)

let compile src = Minic.Driver.compile_exn ~personality src

let install ~program_id ~program img =
  let options = { Asc_core.Installer.default_options with program_id } in
  match Asc_core.Installer.install ~key ~personality ~options ~program img with
  | Ok inst -> inst.Asc_core.Installer.image
  | Error e -> failwith (Printf.sprintf "install %s: %s" program e)

let victim_plain = lazy (compile Workloads.W_tools.victim)
let victim_auth = lazy (install ~program_id:1 ~program:"victim" (Lazy.force victim_plain))
let ls_plain = lazy (compile Workloads.W_tools.ls)
let ls_auth = lazy (install ~program_id:2 ~program:"ls" (Lazy.force ls_plain))
let sh_plain = lazy (compile Workloads.W_tools.sh)
let sh_auth = lazy (install ~program_id:3 ~program:"sh" (Lazy.force sh_plain))

(* ----- locating the stack buffer (attacker reconnaissance) ----- *)

(* get_filename's frame: char buf[32] at fp-40 (below the out-param slot),
   so the saved frame pointer sits at buf+40 and the return address at
   buf+48. *)
let ret_distance = 48

let le64 v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* The threat model grants the attacker simulators and debuggers: run the
   victim on a marker payload whose smashed return address points into
   zeroed memory (opcode 0 halts), freezing the machine with the buffer
   intact, then scan memory for the marker. *)
let probe_buffer_addr image =
  let marker = "PROBE_MARKER_XYZQ" in
  (* slots smashed on the way to the return address: the out parameter (must
     stay a valid pointer or strcpy faults first) and the saved frame
     pointer; the return address lands in zeroed memory (opcode 0 halts) *)
  let payload =
    marker
    ^ String.make (32 - String.length marker) 'P'
    ^ le64 0x100000 (* out param: scratch memory *)
    ^ String.make 8 'P' (* saved fp *)
    ^ le64 0x200000 (* return address: zeroed memory halts *)
  in
  let kernel = Kernel.create ~personality () in
  let proc = Kernel.spawn kernel ~stdin:payload ~program:"victim" image in
  ignore (Kernel.run kernel proc ~max_cycles:50_000_000);
  let mem = proc.Process.machine.Machine.mem in
  let n = Bytes.length mem in
  let mlen = String.length marker in
  let rec scan i =
    if i + mlen > n then failwith "attacks: probe marker not found"
    else if Bytes.sub_string mem i mlen = marker then i
    else scan (i + 1)
  in
  (* the buffer lives on the stack, above the data sections *)
  scan (n / 2)

let check_no_newline payload what =
  String.iteri
    (fun i c ->
      if c = '\n' then
        failwith
          (Printf.sprintf "attacks: %s payload contains a newline at byte %d; cannot be \
                           delivered through read_line" what i))
    payload

(* [fastpath] arms the checker's deployed fast path, used to assert that
   every attack trips the exact same violation step with it on: tampered
   bytes can never hit the vcache, and every precomp/cfpre mismatch falls
   back to the reference path, so the deny is unchanged. *)
let checker_monitor ~fastpath kernel =
  Asc_core.Checker.monitor_with ~kernel ~key
    (if fastpath then Some (Asc_core.Checker.fastpath ~key kernel) else None)

let run_victim ~protected ?(fastpath = false) ?(prepare = fun (_ : Kernel.t) -> ()) ~payload
    ?(patch = fun (_ : Machine.t) -> ()) () =
  let kernel = Kernel.create ~personality () in
  if protected then
    Kernel.set_monitor kernel (Some (checker_monitor ~fastpath kernel));
  kernel.Kernel.tracing <- true;
  prepare kernel;
  let ls = Lazy.force (if protected then ls_auth else ls_plain) in
  let sh = Lazy.force (if protected then sh_auth else sh_plain) in
  Kernel.install_binary kernel ~path:"/bin/ls" ls;
  Kernel.install_binary kernel ~path:"/bin/sh" sh;
  let image = Lazy.force (if protected then victim_auth else victim_plain) in
  let proc = Kernel.spawn kernel ~stdin:payload ~program:"victim" image in
  patch proc.Process.machine;
  let stop = Kernel.run kernel proc ~max_cycles:100_000_000 in
  (kernel, proc, stop)

(* the last structured violation the kernel audited for this pid — the
   checker's account of *which verification step* refused the call *)
let last_violation kernel pid =
  List.fold_left
    (fun acc e ->
      match e with
      | Kernel.Violation { pid = p; violation; _ } when p = pid -> Some violation
      | _ -> acc)
    None (Kernel.audit_log kernel)

let blocked kernel (proc : Process.t) reason =
  Blocked
    { b_reason = reason;
      b_step =
        Option.map (fun v -> v.Violation.v_step) (last_violation kernel proc.Process.pid) }

let classify ~goal (kernel, proc, stop) =
  let out = Kernel.stdout_of proc in
  match stop with
  | Machine.Killed reason -> blocked kernel proc reason
  | Machine.Halted _ | Machine.Faulted _ | Machine.Cycle_limit ->
    (match goal kernel out with
     | Some evidence -> Succeeded evidence
     | None ->
       (match stop with
        | Machine.Faulted (_, pc) -> Crashed (Printf.sprintf "fault at 0x%x" pc)
        | _ -> Crashed "goal not reached"))

(* Classify, then — for protected runs that were blocked — require the
   structured violation step to be the one this attack is supposed to trip:
   the assertion is on the step variant, not a substring of the reason. *)
let finish what ~protected ~expect ~goal run =
  match classify ~goal run with
  | Blocked b when protected ->
    (match b.b_step with
     | Some s when List.mem s expect -> Blocked b
     | Some s ->
       failwith
         (Printf.sprintf "attacks: %s blocked at step %s, expected one of [%s]" what
            (Violation.step_name s)
            (String.concat "; " (List.map Violation.step_name expect)))
     | None ->
       failwith
         (Printf.sprintf "attacks: %s blocked without a structured violation (%s)" what
            b.b_reason))
  | outcome -> outcome

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let pwned_goal _kernel out = if contains out "pwned shell" then Some "shell executed" else None

(* ----- attack 1: classic shellcode injection ----- *)

let run_shellcode ~protected ?fastpath ~prepare () =
  let image = Lazy.force (if protected then victim_auth else victim_plain) in
  let buf = probe_buffer_addr image in
  (* shellcode: execve("/bin/sh") with the string carried in the payload.
     Like any raw shellcode it sets up its own register state — including
     the descriptor register, which it has no authenticated value for: the
     call reaches the kernel without the authentication marker, rather
     than riding whatever descriptor the interrupted call left behind. *)
  let code = Bytes.create 32 in
  Isa.encode (Isa.Movi (7, 0)) code ~pos:0;
  Isa.encode (Isa.Movi (1, buf + ret_distance + 8)) code ~pos:8;
  Isa.encode (Isa.Movi (0, num Syscall.Execve)) code ~pos:16;
  Isa.encode Isa.Sys code ~pos:24;
  let payload =
    Bytes.to_string code (* fills the 32-byte buffer exactly *)
    ^ le64 buf (* out param: self-copy keeps the payload intact *)
    ^ String.make 8 'F' (* saved fp *)
    ^ le64 buf (* return address -> shellcode *)
    ^ "/bin/sh\000" (* at buf + ret_distance + 8 *)
  in
  check_no_newline payload "shellcode";
  run_victim ~protected ?fastpath ~prepare ~payload ()

let shellcode_expect = [ Violation.Unauthenticated ]

let shellcode ?fastpath ~protected () =
  finish "shellcode" ~protected ~expect:shellcode_expect ~goal:pwned_goal
    (run_shellcode ~protected ?fastpath ~prepare:ignore ())

(* ----- attack 2: mimicry via authenticated calls from another binary ----- *)

(* Extract, from an installed image, the byte run of [movi...movi sys]
   implementing one authenticated call site. *)
let extract_auth_site image =
  let text = Obj_file.text_section image in
  let payload = Bytes.of_string text.Obj_file.sec_payload in
  let slots = Bytes.length payload / Isa.instr_size in
  let decode i = Isa.decode payload ~pos:(i * Isa.instr_size) in
  let sites = ref [] in
  for i = 0 to slots - 1 do
    if decode i = Some Isa.Sys then begin
      (* walk back over the contiguous movi run *)
      let rec back j =
        if j < 0 then 0
        else
          match decode j with
          | Some (Isa.Movi _) -> back (j - 1)
          | _ -> j + 1
      in
      let start = back (i - 1) in
      if i - start >= 5 then
        sites :=
          ( text.Obj_file.sec_addr + (start * Isa.instr_size),
            Bytes.sub_string payload (start * Isa.instr_size)
              ((i - start + 1) * Isa.instr_size) )
          :: !sites
    end
  done;
  List.rev !sites

let mimicry_goal kernel _out =
  let socket_number = num Syscall.Socket in
  let made_socket =
    List.exists
      (fun t -> t.Kernel.t_sem = Some Syscall.Socket && t.Kernel.t_number = socket_number)
      (Kernel.trace kernel)
  in
  if made_socket then Some "foreign authenticated syscall executed" else None

let run_mimicry ~protected ?fastpath ~prepare () =
  (* donor application: makes a socket call the victim never makes *)
  let donor_src = "int main() { socket(1, 1, 0); return 0; }" in
  let donor = install ~program_id:9 ~program:"donor" (compile donor_src) in
  let image = Lazy.force (if protected then victim_auth else victim_plain) in
  let buf = probe_buffer_addr image in
  let socket_number = num Syscall.Socket in
  (* pick the donor site that actually issues socket() *)
  let is_socket_site bytes =
    let b = Bytes.of_string bytes in
    let rec scan i =
      if i + Isa.instr_size > Bytes.length b then false
      else
        match Isa.decode b ~pos:i with
        | Some (Isa.Movi (0, v)) when v = socket_number -> true
        | _ -> scan (i + Isa.instr_size)
    in
    scan 0
  in
  let sites = List.filter (fun (_, bytes) -> is_socket_site bytes) (extract_auth_site donor) in
  let usable =
    List.filter_map
      (fun (_, bytes) ->
        (* splice after the return-address slot; ends with a halt *)
        let halt = Bytes.create 8 in
        Isa.encode Isa.Halt halt ~pos:0;
        let payload =
          String.make 32 'A'
          ^ le64 buf (* out param: harmless self-copy *)
          ^ String.make 8 'A' (* saved fp *)
          ^ le64 (buf + ret_distance + 8) (* return into the spliced code *)
          ^ bytes ^ Bytes.to_string halt
        in
        if String.contains payload '\n' then None else Some payload)
      sites
  in
  match usable with
  | [] -> failwith "attacks: no newline-free mimicry payload found"
  | payload :: _ -> run_victim ~protected ?fastpath ~prepare ~payload ()

(* the spliced site sits at a different address than the donor's, so the
   rebuilt encoded call (step 1) no longer matches the carried call MAC *)
let mimicry_expect = [ Violation.Call_mac; Violation.Control_flow ]

let mimicry ?fastpath ~protected () =
  finish "mimicry" ~protected ~expect:mimicry_expect ~goal:mimicry_goal
    (run_mimicry ~protected ?fastpath ~prepare:ignore ())

(* ----- attack 3: non-control data ----- *)

(* "tried to replace the argument /bin/ls of the existing authenticated
   execve system call with /bin/sh": a pure data overwrite — control flow
   is never hijacked. We grant the attacker an arbitrary-write primitive
   (e.g. a heap overflow) by patching the string in process memory. *)
let run_non_control_data ~protected ?fastpath ~prepare () =
  let patch (m : Machine.t) =
    (* overwrite every occurrence of "/bin/ls" in writable+readable memory *)
    let needle = "/bin/ls" in
    let mem = m.Machine.mem in
    let found = ref 0 in
    for a = 0 to Bytes.length mem - String.length needle - 1 do
      if Bytes.sub_string mem a (String.length needle) = needle then begin
        Bytes.blit_string "/bin/sh" 0 mem a 7;
        incr found
      end
    done;
    if !found = 0 then failwith "attacks: /bin/ls not found in memory"
  in
  run_victim ~protected ?fastpath ~prepare ~payload:"notes.txt\n" ~patch ()

let non_control_data_expect = [ Violation.String_mac ]

let non_control_data ?fastpath ~protected () =
  finish "non-control-data" ~protected ~expect:non_control_data_expect ~goal:pwned_goal
    (run_non_control_data ~protected ?fastpath ~prepare:ignore ())

(* ----- §5.5: Frankenstein ----- *)

let padding_src =
  let buf = Buffer.create 20000 in
  Buffer.add_string buf "int never = 0;\nint pad(int x) {\n";
  for _ = 1 to 2500 do
    Buffer.add_string buf "  x = x + 3;\n"
  done;
  Buffer.add_string buf "  return x;\n}\n";
  Buffer.contents buf

(* Application A: padded so that its call sites and .asc land far above
   application B's whole image, letting the Frankenstein composition place
   both binaries' fragments in one address space at their original
   (MAC-bound) addresses. *)
let app_a_src =
  padding_src ^ "int main() { if (never) { pad(1); } socket(1, 1, 0); return 0; }"

let app_b_src = "int main() { getpid(); time(0); return 0; }"

let frankenstein ?(fastpath = false) ~cross () =
  let a_img = install ~program_id:21 ~program:"appA" (compile app_a_src) in
  let b_img = install ~program_id:22 ~program:"appB" (compile app_b_src) in
  let b_extent =
    List.fold_left
      (fun acc (s : Obj_file.section) -> max acc (s.sec_addr + s.sec_size))
      0 b_img.Obj_file.sections
  in
  (* pick an A site above B's extent *)
  let a_sites = List.filter (fun (addr, _) -> addr > b_extent) (extract_auth_site a_img) in
  let a_site_addr, a_site_bytes =
    match a_sites with
    | s :: _ -> s
    | [] -> failwith "attacks: padding failed to lift appA's sites above appB"
  in
  let kernel = Kernel.create ~personality () in
  Kernel.set_monitor kernel (Some (checker_monitor ~fastpath kernel));
  kernel.Kernel.tracing <- true;
  let proc = Kernel.spawn kernel ~program:"frankenstein" b_img in
  let m = proc.Process.machine in
  (* splice A's authenticated site and A's high sections (rodata/.asc) *)
  ignore (Machine.write_mem m ~addr:a_site_addr a_site_bytes);
  let halt = Bytes.create 8 in
  Isa.encode Isa.Halt halt ~pos:0;
  ignore
    (Machine.write_mem m
       ~addr:(a_site_addr + String.length a_site_bytes)
       (Bytes.to_string halt));
  List.iter
    (fun (s : Obj_file.section) ->
      if s.sec_addr > b_extent && s.sec_kind <> Obj_file.Text then
        ignore (Machine.write_mem m ~addr:s.sec_addr s.sec_payload))
    a_img.Obj_file.sections;
  if cross then begin
    (* after B executes its getpid call, divert into A's spliced call *)
    let text = Obj_file.text_section b_img in
    let payload = Bytes.of_string text.Obj_file.sec_payload in
    let slots = Bytes.length payload / Isa.instr_size in
    let getpid_number = num Syscall.Getpid in
    let rec getpid_sys i saw_getpid =
      if i >= slots then failwith "attacks: appB getpid site not found"
      else
        match Isa.decode payload ~pos:(i * Isa.instr_size) with
        | Some (Isa.Movi (0, v)) when v = getpid_number -> getpid_sys (i + 1) true
        | Some Isa.Sys when saw_getpid -> i
        | Some (Isa.Movi _) -> getpid_sys (i + 1) saw_getpid
        | _ -> getpid_sys (i + 1) false
    in
    let sys_slot = getpid_sys 0 false in
    let jmp = Bytes.create 8 in
    Isa.encode (Isa.Jmp a_site_addr) jmp ~pos:0;
    ignore
      (Machine.write_mem m
         ~addr:(text.Obj_file.sec_addr + ((sys_slot + 1) * Isa.instr_size))
         (Bytes.to_string jmp))
  end;
  let stop = Kernel.run kernel proc ~max_cycles:100_000_000 in
  match stop with
  | Machine.Killed reason ->
    (match blocked kernel proc reason with
     | Blocked b as outcome when cross ->
       (* A's spliced site carries valid MACs, so it must be the
          control-flow policy (predecessor set / state MAC) that trips *)
       (match b.b_step with
        | Some Violation.Control_flow -> outcome
        | Some s ->
          failwith
            (Printf.sprintf "attacks: frankenstein blocked at step %s, expected control_flow"
               (Violation.step_name s))
        | None -> failwith "attacks: frankenstein blocked without a structured violation")
     | outcome -> outcome)
  | Machine.Halted _ ->
    if cross then Crashed "cross-application call was not blocked"
    else Succeeded "single-application chain permitted"
  | Machine.Faulted (_, pc) -> Crashed (Printf.sprintf "fault at 0x%x" pc)
  | Machine.Cycle_limit -> Crashed "cycle limit"

(* ----- forensic runs: the §4.1 attacks with the flight recorder on ----- *)

let forensic_expectations =
  [ ("shellcode", shellcode_expect);
    ("mimicry", mimicry_expect);
    ("non-control-data", non_control_data_expect) ]

let forensic_runs () =
  let runners =
    [ ("shellcode", shellcode_expect, pwned_goal, run_shellcode ?fastpath:None);
      ("mimicry", mimicry_expect, mimicry_goal, run_mimicry ?fastpath:None);
      ( "non-control-data",
        non_control_data_expect,
        pwned_goal,
        run_non_control_data ?fastpath:None ) ]
  in
  List.map
    (fun (name, expect, goal, runf) ->
      let log = Asc_obs.Authlog.create ~key () in
      let prepare kernel = Kernel.set_authlog kernel (Some log) in
      let ((kernel, _, _) as run) = runf ~protected:true ~prepare () in
      (name, kernel, finish name ~protected:true ~expect ~goal run))
    runners
