(* Forensic toolbox over the kernel's tamper-evident audit chain: verify a
   JSONL export, render violation flight-recorder reports, and map forensic
   signatures back to the §4.1 attack classes. *)

open Cmdliner
open Oskernel
module Json = Asc_obs.Json
module Authlog = Asc_obs.Authlog

let ( let* ) = Result.bind

(* ----- reading an exported chain back into audit entries ----- *)

(* Each "record" line of an Authlog export carries one audit entry under
   "entry". Lines that are not records (header, trailer) or whose entries
   are not kernel audit entries are skipped. *)
let entries_of_export contents =
  let lines = String.split_on_char '\n' contents in
  List.filteri (fun _ l -> String.trim l <> "") lines
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Error _ -> None
         | Ok j ->
           (match Option.bind (Json.member "kind" j) Json.to_str with
            | Some "record" ->
              Option.bind (Json.member "entry" j) (fun e ->
                  match Kernel.audit_of_json e with
                  | Ok entry ->
                    let seq =
                      Option.value ~default:0
                        (Option.bind (Json.member "seq" j) Json.to_int)
                    in
                    Some (seq, entry)
                  | Error _ -> None)
            | _ -> None))

let violations_of_export contents =
  List.filter_map
    (fun (seq, entry) ->
      match entry with
      | Kernel.Violation { pid; program; violation; snapshot } ->
        Some (seq, pid, program, violation, snapshot)
      | _ -> None)
    (entries_of_export contents)

(* ----- verify ----- *)

let verify log key_hex expect_head =
  let result =
    let* key = Common.key_of_hex key_hex in
    let* contents = try Ok (Common.read_file log) with Sys_error e -> Error e in
    match Authlog.verify_string ?expect_head ~key contents with
    | Ok n ->
      Format.printf "%s: OK — %d record%s verified, chain intact@." log n
        (if n = 1 then "" else "s");
      Ok 0
    | Error e ->
      Format.printf "%s: TAMPERED — %a@." log Authlog.pp_verify_error e;
      Ok 3
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-audit: %s@." e;
    1

(* ----- report ----- *)

let pp_opt_hex ppf = function
  | Some h -> Format.fprintf ppf "%s" h
  | None -> Format.fprintf ppf "-"

let disasm_window img site =
  let text = Svm.Obj_file.text_section img in
  let payload = Bytes.of_string text.Svm.Obj_file.sec_payload in
  let base = text.Svm.Obj_file.sec_addr in
  let slots = Bytes.length payload / Svm.Isa.instr_size in
  let slot = (site - base) / Svm.Isa.instr_size in
  if site < base || slot >= slots then
    Format.printf "  site 0x%x is outside the text section [0x%x, 0x%x)@." site base
      (base + Bytes.length payload)
  else begin
    let lo = max 0 (slot - 6) and hi = min (slots - 1) (slot + 2) in
    for i = lo to hi do
      let addr = base + (i * Svm.Isa.instr_size) in
      let marker = if i = slot then ">" else " " in
      match Svm.Isa.decode payload ~pos:(i * Svm.Isa.instr_size) with
      | Some instr -> Format.printf "  %s 0x%06x  %a@." marker addr Svm.Isa.pp instr
      | None -> Format.printf "  %s 0x%06x  (undecodable)@." marker addr
    done
  end

let print_report ?img (seq, pid, program, (v : Violation.t), (sn : Violation.snapshot)) =
  Format.printf "=== violation (record %d): pid %d, program %s ===@." seq pid program;
  Format.printf "failing step:   %s (attack class: %s)@."
    (Violation.step_name v.Violation.v_step)
    (Violation.attack_class v.Violation.v_step);
  let sem = Option.value ~default:(Printf.sprintf "syscall#%d" v.v_number) v.v_sem in
  Format.printf "call:           %s (number %d) at site 0x%x@." sem v.v_number v.v_site;
  Format.printf "reason:         %s@." v.v_reason;
  (match (v.v_expected_mac, v.v_got_mac) with
   | None, None -> ()
   | e, g ->
     Format.printf "MAC diff:       expected %a@." pp_opt_hex e;
     Format.printf "                supplied %a@." pp_opt_hex g);
  Format.printf "machine:        pc=0x%x cycles=%d instructions=%d@." sn.sn_pc sn.sn_cycles
    sn.sn_instrs;
  Format.printf "registers:     ";
  Array.iteri (fun i r -> Format.printf " r%d=0x%x" i r) sn.sn_regs;
  Format.printf "@.";
  Format.printf "policy state:   kernel counter=%d lastBlock=%s lbMAC=%s@." sn.sn_counter
    (match sn.sn_last_block with Some b -> string_of_int b | None -> "(unreadable)")
    (match sn.sn_lb_mac with Some h -> h | None -> "(unreadable)");
  (match sn.sn_recent with
   | [] -> Format.printf "recent syscalls: (none recorded)@."
   | recent ->
     Format.printf "recent syscalls (oldest first):@.";
     List.iter
       (fun (c : Violation.call) ->
         Format.printf "  %s(#%d) @@ 0x%x = %d@." c.c_name c.c_number c.c_site c.c_result)
       recent);
  (match img with
   | None -> ()
   | Some img ->
     Format.printf "disassembly around site:@.";
     disasm_window img v.v_site);
  Format.printf "@."

let report log program os =
  let result =
    let* personality = Common.personality_of_string os in
    let* contents = try Ok (Common.read_file log) with Sys_error e -> Error e in
    let* img =
      match program with
      | None -> Ok None
      | Some p ->
        let* img, _ = Common.load_program ~personality p in
        Ok (Some img)
    in
    let vs = violations_of_export contents in
    (match vs with
     | [] -> Format.printf "%s: no violation records@." log
     | vs -> List.iter (fun v -> print_report ?img v) vs);
    Ok 0
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-audit: %s@." e;
    1

(* ----- classify ----- *)

let classify log =
  let result =
    let* contents = try Ok (Common.read_file log) with Sys_error e -> Error e in
    match violations_of_export contents with
    | [] ->
      Format.printf "%s: no violation records@." log;
      Ok 2
    | vs ->
      List.iter
        (fun (seq, pid, program, (v : Violation.t), _) ->
          Format.printf "record %d: %s — step=%s pid=%d program=%s site=0x%x (%s)@." seq
            (Violation.attack_class v.Violation.v_step)
            (Violation.step_name v.Violation.v_step)
            pid program v.v_site v.v_reason)
        vs;
      Ok 0
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-audit: %s@." e;
    1

(* ----- selftest: the §4.1 attacks against the whole forensic pipeline ----- *)

(* Flip one bit in the middle of an export (inside some record's payload). *)
let flip_bit s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* Drop the trailer and the last record line: a truncation that keeps every
   remaining line intact. *)
let truncate_export s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  let n = List.length lines in
  let kept = List.filteri (fun i _ -> i < n - 2) lines in
  String.concat "\n" kept ^ "\n"

let selftest () =
  let failures = ref 0 in
  let check what ok = if not ok then begin incr failures; Format.printf "FAIL: %s@." what end in
  let runs = try Ok (Attacks.forensic_runs ()) with Failure e -> Error e in
  match runs with
  | Error e ->
    Format.eprintf "asc-audit selftest: %s@." e;
    1
  | Ok runs ->
    List.iter
      (fun (name, kernel, outcome) ->
        (match outcome with
         | Attacks.Blocked _ -> ()
         | o ->
           check (Format.asprintf "%s: expected Blocked, got %a" name Attacks.pp_outcome o)
             false);
        match Kernel.authlog kernel with
        | None -> check (name ^ ": kernel has no authlog attached") false
        | Some log ->
          let exported = Authlog.export_string log in
          (* the untouched chain must verify, with the out-of-band head *)
          let expect_head = Authlog.hex (Authlog.head_mac log) in
          (match Authlog.verify_string ~expect_head ~key:Attacks.key exported with
           | Ok _ -> ()
           | Error e ->
             check
               (Format.asprintf "%s: pristine chain failed to verify (%a)" name
                  Authlog.pp_verify_error e)
               false);
          (* a single flipped bit must be detected *)
          (match Authlog.verify_string ~key:Attacks.key (flip_bit exported) with
           | Error _ -> ()
           | Ok _ -> check (name ^ ": bit flip went undetected") false);
          (* so must cutting records off the end *)
          (match Authlog.verify_string ~key:Attacks.key (truncate_export exported) with
           | Error _ -> ()
           | Ok _ -> check (name ^ ": truncation went undetected") false);
          (* classification from the recorded forensics alone *)
          (match violations_of_export exported with
           | [] -> check (name ^ ": no violation record in the chain") false
           | (_, _, _, v, _) :: _ ->
             let cls = Violation.attack_class v.Violation.v_step in
             Format.printf "%-18s -> step=%-15s class=%s@." name
               (Violation.step_name v.Violation.v_step)
               cls;
             check
               (Printf.sprintf "%s: classified as %s" name cls)
               (cls = name)))
      runs;
    if !failures = 0 then begin
      Format.printf "selftest: %d attacks — chains verified, tampering detected, all classified@."
        (List.length runs);
      0
    end
    else 1

(* ----- cmdliner plumbing ----- *)

let log_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG"
         ~doc:"JSONL audit-chain export (asc-run --audit-out).")

let key_arg =
  Arg.(value & opt string "000102030405060708090a0b0c0d0e0f"
       & info [ "k"; "key" ] ~docv:"HEX" ~doc:"128-bit chain key (must match the kernel's).")

let expect_head_arg =
  Arg.(value & opt (some string) None & info [ "expect-head" ] ~docv:"HEX"
         ~doc:"Out-of-band head commitment: require the trailer to match this exact chain \
               head (closes the truncate-and-rewrite-trailer edit the file alone cannot \
               expose).")

let program_arg =
  Arg.(value & opt (some string) None & info [ "program" ] ~docv:"PROGRAM"
         ~doc:"The SEF binary (or MiniC source / workload:NAME) the log came from; enables \
               the disassembly window around each violation site.")

let os_arg =
  Arg.(value & opt string "linux" & info [ "os" ] ~docv:"OS" ~doc:"linux or openbsd.")

let verify_cmd =
  let doc = "verify the integrity of an exported audit chain" in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const verify $ log_arg $ key_arg $ expect_head_arg)

let report_cmd =
  let doc = "render the forensic flight-recorder report of each violation" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report $ log_arg $ program_arg $ os_arg)

let classify_cmd =
  let doc = "map each violation's forensic signature to its §4.1 attack class" in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const classify $ log_arg)

let selftest_cmd =
  let doc =
    "run the §4.1 attacks under enforcement and assert the forensic pipeline end to end: \
     chains verify, tampering (bit flips, truncation) is detected, and every attack is \
     classified correctly from its recorded violation"
  in
  Cmd.v (Cmd.info "selftest" ~doc) Term.(const selftest $ const ())

let cmd =
  let doc = "verify and investigate tamper-evident audit chains" in
  Cmd.group (Cmd.info "asc-audit" ~doc) [ verify_cmd; report_cmd; classify_cmd; selftest_cmd ]

let () = exit (Cmd.eval' cmd)
