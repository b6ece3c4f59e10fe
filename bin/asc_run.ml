(* Run a program on the simulated kernel, optionally under authenticated-
   system-call enforcement. *)

open Cmdliner
open Oskernel

(* One machine-readable stats document for the whole run: machine cycles,
   fast-path layer counters, the host GC's work during the run (deltas of
   Gc.quick_stat around Kernel.run) and the kernel telemetry plane's
   aggregate (reason mix, per-syscall quantiles, per-site rollups). *)
let stats_json kernel proc ~fast ~gc0 ~gc1 ~minor0 ~minor1 =
  let module Json = Asc_obs.Json in
  let gc_fields =
    let dw f = Json.Int (int_of_float (f gc1 -. f gc0)) in
    (* minor_words comes from the precise allocation counter, not the
       quick_stat field — the latter is only folded forward at minor
       collections, so a short run would read 0 *)
    [ ( "gc",
        Json.Obj
          [ ("minor_words", Json.Int (minor1 - minor0));
            ("major_words", dw (fun (s : Gc.stat) -> s.Gc.major_words));
            ("promoted_words", dw (fun (s : Gc.stat) -> s.Gc.promoted_words));
            ( "minor_collections",
              Json.Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) ) ] ) ]
  in
  let tel = Kernel.telemetry kernel in
  let fast_fields = match fast with Some fp -> Common.fastpath_json fp | None -> [] in
  Json.Obj
    ([ ("tool", Json.Str "asc-run");
       ("cycles", Json.Int proc.Process.machine.Svm.Machine.cycles);
       ("syscalls", Json.Int (Kernel.syscall_count kernel));
       ("denied", Json.Int (Kernel.denied_count kernel)) ]
     @ fast_fields @ gc_fields
     @ [ ("telemetry", Asc_obs.Telemetry.stats_to_json tel (Asc_obs.Telemetry.aggregate tel)) ])

let run input key_hex os enforce stdin_text normalize files libs stats_out verbose_stats
    no_fastpath =
  let ( let* ) = Result.bind in
  let result =
    let* personality = Common.personality_of_string os in
    let* img, w = Common.load_program ~personality input in
    let kernel = Kernel.create ~personality () in
    (match w with Some w -> w.Workloads.Registry.setup kernel | None -> ());
    (* --file path=contents entries populate the VFS *)
    let* () =
      List.fold_left
        (fun acc spec ->
          let* () = acc in
          match String.index_opt spec '=' with
          | None -> Error (Printf.sprintf "--file expects PATH=CONTENTS, got %S" spec)
          | Some i ->
            let path = String.sub spec 0 i in
            let contents = String.sub spec (i + 1) (String.length spec - i - 1) in
            (match Vfs.create_file kernel.Kernel.vfs ~cwd:"/" path ~contents with
             | Ok () -> Ok ()
             | Error e -> Error (Oskernel.Errno.name e)))
        (Ok ()) files
    in
    let* fast =
      if not enforce then Ok None
      else
        let* key = Common.key_of_hex key_hex in
        let fast = if no_fastpath then None else Some (Asc_core.Checker.fastpath ~key kernel) in
        Kernel.set_monitor kernel
          (Some (Asc_core.Checker.monitor_with ~kernel ~key ~normalize_paths:normalize fast));
        Ok fast
    in
    let stdin =
      match (stdin_text, w) with
      | Some s, _ -> s
      | None, Some w -> w.Workloads.Registry.stdin
      | None, None -> ""
    in
    let* lib_imgs =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* contents = (try Ok (Common.read_file path) with Sys_error e -> Error e) in
          match Svm.Obj_file.parse contents with
          | Ok img -> Ok (img :: acc)
          | Error e -> Error (Printf.sprintf "%s: %s" path e))
        (Ok []) libs
    in
    let* proc =
      try
        Ok
          (Kernel.spawn kernel ~stdin ~libs:(List.rev lib_imgs)
             ~program:(Filename.basename input) img)
      with Invalid_argument e -> Error e
    in
    let gc0 = Gc.quick_stat () in
    let minor0 = Asc_obs.Profile.minor_words () in
    let stop = Kernel.run kernel proc ~max_cycles:2_000_000_000 in
    let minor1 = Asc_obs.Profile.minor_words () in
    let gc1 = Gc.quick_stat () in
    print_string (Kernel.stdout_of proc);
    let err = Kernel.stderr_of proc in
    if err <> "" then Format.eprintf "%s" err;
    Format.eprintf "[%d cycles]@." proc.Process.machine.Svm.Machine.cycles;
    if verbose_stats then Option.iter Common.print_fastpath_stats fast;
    (match stats_out with
     | Some path ->
       Common.write_file path
         (Asc_obs.Json.to_string (stats_json kernel proc ~fast ~gc0 ~gc1 ~minor0 ~minor1) ^ "\n")
     | None -> ());
    (match stop with
     | Svm.Machine.Halted code ->
       Format.eprintf "[exit %d]@." code;
       Ok code
     | Svm.Machine.Killed reason ->
       Format.eprintf "[killed: %s]@." reason;
       (* one-line summary of the structured violation, when the deny
          produced one *)
       List.iter
         (fun e ->
           match e with
           | Kernel.Violation { violation = v; _ } ->
             Format.eprintf "[violation] step=%s class=%s site=0x%x: %s@."
               (Violation.step_name v.Violation.v_step)
               (Violation.attack_class v.Violation.v_step)
               v.Violation.v_site v.Violation.v_reason
           | _ -> ())
         (Kernel.audit_log kernel);
       List.iter
         (fun e -> Format.eprintf "[audit] %s@." (Kernel.audit_to_string e))
         (Kernel.audit_log kernel);
       Ok 137
     | Svm.Machine.Faulted (_, pc) ->
       Format.eprintf "[fault at 0x%x]@." pc;
       Ok 139
     | Svm.Machine.Cycle_limit ->
       Format.eprintf "[cycle limit]@.";
       Ok 124)
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-run: %s@." e;
    1

let input_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
         ~doc:"SEF binary, MiniC source (.mc), or workload:NAME.")

let key_arg =
  Arg.(value & opt string "000102030405060708090a0b0c0d0e0f"
       & info [ "k"; "key" ] ~docv:"HEX" ~doc:"128-bit MAC key (must match the installer's).")

let os_arg =
  Arg.(value & opt string "linux" & info [ "os" ] ~docv:"OS" ~doc:"linux or openbsd.")

let enforce_arg =
  Arg.(value & flag & info [ "e"; "enforce" ]
         ~doc:"Enable the in-kernel authenticated-system-call checker.")

let stdin_arg =
  Arg.(value & opt (some string) None & info [ "stdin" ] ~docv:"TEXT"
         ~doc:"Text supplied on the program's standard input.")

let normalize_arg =
  Arg.(value & flag & info [ "normalize-paths" ]
         ~doc:"Also apply §5.4 in-kernel file name normalization.")

let file_arg =
  Arg.(value & opt_all string [] & info [ "file" ] ~docv:"PATH=CONTENTS"
         ~doc:"Create a file in the simulated VFS before the run (repeatable).")

let lib_arg =
  Arg.(value & opt_all string [] & info [ "lib" ] ~docv:"FILE"
         ~doc:"Map a shared-library SEF image (from asc-install --library) into the \
               process (repeatable).")

let stats_out_arg =
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE"
         ~doc:"Write a machine-readable JSON stats document after the run: machine \
               cycles, fast-path layer counters, host GC deltas (minor/major/promoted \
               words, minor collections) and the kernel telemetry aggregate \
               (reason mix, per-syscall latency quantiles, per-site rollups).")

let verbose_stats_arg =
  Arg.(value & flag & info [ "verbose-stats" ]
         ~doc:"Also print the human-readable fast-path summary lines (vcache, precomp, \
               cfpre) on stderr (prefer $(b,--stats-out) for tooling).")

let cmd =
  let doc = "run a program on the simulated kernel" in
  Cmd.v
    (Cmd.info "asc-run" ~doc)
    Term.(
      const run $ input_arg $ key_arg $ os_arg $ enforce_arg $ stdin_arg $ normalize_arg
      $ file_arg $ lib_arg $ stats_out_arg $ verbose_stats_arg $ Common.no_fastpath_arg)

let () = exit (Cmd.eval' cmd)
