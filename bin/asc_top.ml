(* Fleet-level telemetry viewer: run a simulated fleet of authenticated
   processes on one shared kernel and aggregate its telemetry plane across
   pids — verified syscalls/sec, per-syscall latency quantiles, fast-path
   reason mix, per-site fallback rollups and per-pid rows: the top(1)
   analogue for the per-pid shards of Asc_obs.Telemetry. *)

open Cmdliner
open Oskernel
module Telemetry = Asc_obs.Telemetry
module Json = Asc_obs.Json

let pct part total = if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let stop_name = function
  | Svm.Machine.Halted c -> Printf.sprintf "halted:%d" c
  | Svm.Machine.Killed r -> "killed:" ^ r
  | Svm.Machine.Faulted (_, pc) -> Printf.sprintf "faulted:0x%x" pc
  | Svm.Machine.Cycle_limit -> "cycle-limit"

type pid_row = {
  pr_pid : int;
  pr_workload : string;
  pr_calls : int;
  pr_cycles : int;       (* verification cycles recorded for this pid *)
  pr_alloc : int;        (* checker minor words recorded for this pid *)
  pr_reasons : int array;
  pr_stop : string;
}

(* The fleet itself: [procs] processes round-robinning over the named
   workloads, every one spawned on the SAME kernel so the telemetry plane
   sees concurrent shards the way a real fleet kernel would. Per-pid rows
   are aggregate deltas around each run — exact, because every call is
   added once to the plane's counts. *)
let run_fleet ~personality ~key ~procs ~scale ~no_fastpath names =
  let ( let* ) = Result.bind in
  let* workloads =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        match Workloads.Registry.by_name ~scale name with
        | Some w -> Ok (w :: acc)
        | None -> Error (Printf.sprintf "unknown workload %S" name))
      (Ok []) names
  in
  let workloads = List.rev workloads in
  let kernel = Kernel.create ~personality () in
  let tel = Kernel.telemetry kernel in
  let fast = if no_fastpath then None else Some (Asc_core.Checker.fastpath ~key kernel) in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor_with ~kernel ~key fast));
  let* images =
    List.fold_left
      (fun acc (w : Workloads.Registry.t) ->
        let* acc = acc in
        w.Workloads.Registry.setup kernel;
        let img = Workloads.Registry.compile ~personality w in
        (* each image its own program id, so block ids are unique across
           the fleet (§5.5) and two images never share a verified fact *)
        let options =
          { Asc_core.Installer.default_options with program_id = List.length acc + 1 }
        in
        match
          Asc_core.Installer.install ~key ~personality ~options
            ~program:w.Workloads.Registry.name img
        with
        | Ok inst -> Ok ((w, inst.Asc_core.Installer.image) :: acc)
        | Error e -> Error (w.Workloads.Registry.name ^ ": " ^ e))
      (Ok []) workloads
  in
  let images = Array.of_list (List.rev images) in
  let minor0 = Gc.minor_words () in
  let machine_cycles = ref 0 in
  let rows =
    List.init procs (fun i ->
        let w, image = images.(i mod Array.length images) in
        let before = Telemetry.aggregate tel in
        let proc =
          Kernel.spawn kernel ~stdin:w.Workloads.Registry.stdin
            ~program:w.Workloads.Registry.name image
        in
        let stop = Kernel.run kernel proc ~max_cycles:4_000_000_000 in
        machine_cycles := !machine_cycles + proc.Process.machine.Svm.Machine.cycles;
        let after = Telemetry.aggregate tel in
        { pr_pid = proc.Process.pid;
          pr_workload = w.Workloads.Registry.name;
          pr_calls = after.Telemetry.t_calls - before.Telemetry.t_calls;
          pr_cycles = after.Telemetry.t_cycles - before.Telemetry.t_cycles;
          pr_alloc = after.Telemetry.t_alloc_words - before.Telemetry.t_alloc_words;
          pr_reasons =
            Array.mapi (fun k v -> v - before.Telemetry.t_reasons.(k)) after.Telemetry.t_reasons;
          pr_stop = stop_name stop })
  in
  let minor_words = int_of_float (Gc.minor_words () -. minor0) in
  Ok (tel, rows, !machine_cycles, minor_words)

let deny_idx = Telemetry.reason_index (Telemetry.Deny "")

(* the per-site fallback columns, in print order *)
let fallback_indices =
  List.map
    (fun f -> Telemetry.reason_index (Telemetry.Precomp_fallback f))
    Telemetry.[ F_no_entry; F_statics; F_tag ]

let fleet_json ~procs ~scale ~names tel rows machine_cycles minor_words =
  let agg = Telemetry.aggregate tel in
  let calls = agg.Telemetry.t_calls in
  let seconds = float_of_int machine_cycles *. 1e-9 (* 1 modeled cycle = 1ns *) in
  let syscalls_per_sec = if seconds > 0.0 then float_of_int calls /. seconds else 0.0 in
  let fleet =
    match Telemetry.stats_to_json tel agg with
    | Json.Obj fields ->
      Json.Obj
        (fields
         @ [ ("machine_cycles", Json.Int machine_cycles);
             ("verified_syscalls_per_sec", Json.Float syscalls_per_sec);
             ( "self_overhead_pct",
               Json.Float (pct agg.Telemetry.t_self_cycles agg.Telemetry.t_cycles) );
             ( "minor_words_per_call",
               Json.Float (if calls = 0 then 0.0 else float_of_int minor_words /. float_of_int calls) );
             ( "deny_rate_pct",
               Json.Float (pct agg.Telemetry.t_reasons.(deny_idx) calls) ) ])
    | other -> other
  in
  Json.Obj
    [ ("tool", Json.Str "asc-top");
      ("procs", Json.Int procs);
      ("scale", Json.Int scale);
      ("workloads", Json.List (List.map (fun n -> Json.Str n) names));
      ("fleet", fleet);
      ( "per_pid",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [ ("pid", Json.Int r.pr_pid);
                   ("workload", Json.Str r.pr_workload);
                   ("calls", Json.Int r.pr_calls);
                   ("verification_cycles", Json.Int r.pr_cycles);
                   ("alloc_words", Json.Int r.pr_alloc);
                   ("denies", Json.Int r.pr_reasons.(deny_idx));
                   ("stop", Json.Str r.pr_stop) ])
             rows) ) ]

(* Schema self-check: re-parse the emitted document and assert the fields
   every consumer (the dune smoke rule, the bench diff tool) relies on.
   Returns an error rather than emitting a document that would break them. *)
let self_check doc =
  let s = Json.to_string doc in
  match Json.parse s with
  | Error e -> Error ("asc-top --json: emitted document does not re-parse: " ^ e)
  | Ok parsed ->
    let need what = function
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "asc-top --json: schema self-check: missing %s" what)
    in
    let ( let* ) = Result.bind in
    let* () = need "tool" (Json.member "tool" parsed) in
    let* () = need "procs" (Json.member "procs" parsed) in
    let* () = need "fleet" (Json.member "fleet" parsed) in
    let* () = need "per_pid" (Json.member "per_pid" parsed) in
    let fleet = Option.get (Json.member "fleet" parsed) in
    let* () = need "fleet.calls" (Json.member "calls" fleet) in
    let* () = need "fleet.reasons" (Json.member "reasons" fleet) in
    let* () = need "fleet.per_syscall" (Json.member "per_syscall" fleet) in
    let* () = need "fleet.alloc_words" (Json.member "alloc_words" fleet) in
    let* () = need "fleet.alloc" (Json.member "alloc" fleet) in
    let reasons = Option.get (Json.member "reasons" fleet) in
    let* () =
      Array.fold_left
        (fun acc label ->
          let* () = acc in
          need ("fleet.reasons." ^ label) (Json.member label reasons))
        (Ok ()) Telemetry.reason_labels
    in
    (* the exhaustiveness invariant, re-checked on the wire format *)
    let calls = Option.bind (Json.member "calls" fleet) Json.to_int in
    let total = Option.bind (Json.member "reasons_total" fleet) Json.to_int in
    match (calls, total) with
    | Some c, Some t when c = t -> Ok s
    | Some c, Some t ->
      Error (Printf.sprintf "asc-top --json: reason counts (%d) do not cover calls (%d)" t c)
    | _ -> Error "asc-top --json: schema self-check: calls/reasons_total not integers"

let print_human ~procs ~scale ~names tel rows machine_cycles minor_words =
  let agg = Telemetry.aggregate tel in
  let calls = agg.Telemetry.t_calls in
  let seconds = float_of_int machine_cycles *. 1e-9 in
  Format.printf "asc-top: %d procs over %s (scale %d)@." procs (String.concat "," names) scale;
  Format.printf "  monitored calls        %12d@." calls;
  Format.printf "  verification cycles    %12d@." agg.Telemetry.t_cycles;
  Format.printf "  verified syscalls/sec  %12.0f  (1 cycle = 1ns)@."
    (if seconds > 0.0 then float_of_int calls /. seconds else 0.0);
  Format.printf "  telemetry self cycles  %12d  (%.3f%% of verification)@."
    agg.Telemetry.t_self_cycles
    (pct agg.Telemetry.t_self_cycles agg.Telemetry.t_cycles);
  Format.printf "  minor words/call       %12.1f@."
    (if calls = 0 then 0.0 else float_of_int minor_words /. float_of_int calls);
  Format.printf "  checker words          %12d@." agg.Telemetry.t_alloc_words;
  if agg.Telemetry.t_alloc.Telemetry.q_count > 0 then begin
    let snap = Telemetry.alloc_hist_snapshot tel agg.Telemetry.t_alloc in
    let q p = Asc_obs.Metrics.quantile snap p in
    Format.printf "  checker words/call     %12d  p50 %d  p95 %d  p99 %d@."
      (agg.Telemetry.t_alloc.Telemetry.q_sum / agg.Telemetry.t_alloc.Telemetry.q_count)
      (q 0.50) (q 0.95) (q 0.99)
  end;
  Format.printf "  deny rate              %11.2f%%@."
    (pct agg.Telemetry.t_reasons.(deny_idx) calls);
  Format.printf "@.  reason mix:@.";
  Array.iteri
    (fun i label ->
      if agg.Telemetry.t_reasons.(i) > 0 then
        Format.printf "    %-20s %10d  %6.2f%%@." label agg.Telemetry.t_reasons.(i)
          (pct agg.Telemetry.t_reasons.(i) calls))
    Telemetry.reason_labels;
  Format.printf "@.  per-syscall verification cycles:@.";
  Format.printf "    %-16s %8s %8s %8s %8s %8s@." "syscall" "calls" "mean" "p50" "p95" "p99";
  List.iter
    (fun (sem, h) ->
      let snap = Telemetry.hist_snapshot tel h in
      let q p = Asc_obs.Metrics.quantile snap p in
      Format.printf "    %-16s %8d %8d %8d %8d %8d@." sem h.Telemetry.q_count
        (if h.Telemetry.q_count = 0 then 0 else h.Telemetry.q_sum / h.Telemetry.q_count)
        (q 0.50) (q 0.95) (q 0.99))
    (List.sort
       (fun (_, a) (_, b) -> compare b.Telemetry.q_count a.Telemetry.q_count)
       agg.Telemetry.t_per_sem);
  let falling =
    List.filter_map
      (fun (site, counts) ->
        let fb = List.fold_left (fun acc i -> acc + counts.(i)) 0 fallback_indices in
        if fb > 0 then Some (site, counts, fb) else None)
      agg.Telemetry.t_sites
  in
  if falling <> [] then begin
    Format.printf "@.  fallback sites (top %d):@." (min 10 (List.length falling));
    Format.printf "    %-10s %10s %10s %10s@." "site" "no_entry" "statics" "tag";
    List.iteri
      (fun i (site, counts, _) ->
        if i < 10 then begin
          Format.printf "    0x%-8x" site;
          List.iter (fun k -> Format.printf " %10d" counts.(k)) fallback_indices;
          Format.printf "@."
        end)
      (List.sort (fun (_, _, a) (_, _, b) -> compare b a) falling)
  end;
  Format.printf "@.  per-pid:@.";
  Format.printf "    %-5s %-10s %10s %14s %10s %8s  %s@." "pid" "workload" "calls"
    "verif-cycles" "words" "denies" "stop";
  List.iter
    (fun r ->
      Format.printf "    %-5d %-10s %10d %14d %10d %8d  %s@." r.pr_pid r.pr_workload
        r.pr_calls r.pr_cycles r.pr_alloc r.pr_reasons.(deny_idx) r.pr_stop)
    rows

let run procs workloads_csv scale key_hex os json no_fastpath =
  let ( let* ) = Result.bind in
  let result =
    let* () = if procs < 1 then Error "--procs must be >= 1" else Ok () in
    let* () = if scale < 1 then Error "--scale must be >= 1" else Ok () in
    let* personality = Common.personality_of_string os in
    let* key = Common.key_of_hex key_hex in
    let names = List.filter (fun s -> s <> "") (String.split_on_char ',' workloads_csv) in
    let* () = if names = [] then Error "--workloads must name at least one workload" else Ok () in
    let* tel, rows, machine_cycles, minor_words =
      run_fleet ~personality ~key ~procs ~scale ~no_fastpath names
    in
    if json then
      let doc = fleet_json ~procs ~scale ~names tel rows machine_cycles minor_words in
      let* s = self_check doc in
      print_endline s;
      Ok 0
    else begin
      print_human ~procs ~scale ~names tel rows machine_cycles minor_words;
      Ok 0
    end
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-top: %s@." e;
    1

let procs_arg =
  Arg.(value & opt int 6 & info [ "procs" ] ~docv:"N"
         ~doc:"Number of processes in the simulated fleet (round-robin over the workloads).")

let workloads_arg =
  Arg.(value & opt string "pyramid" & info [ "workloads" ] ~docv:"NAMES"
         ~doc:"Comma-separated workload names from the registry (e.g. pyramid,gzip,tar).")

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let key_arg =
  Arg.(value & opt string "000102030405060708090a0b0c0d0e0f"
       & info [ "k"; "key" ] ~docv:"HEX" ~doc:"128-bit MAC key used to install and verify.")

let os_arg =
  Arg.(value & opt string "linux" & info [ "os" ] ~docv:"OS" ~doc:"linux or openbsd.")

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the machine-readable fleet summary (schema self-checked) instead of \
               the human table.")

let cmd =
  let doc = "aggregate fleet telemetry from a simulated multi-process run" in
  Cmd.v (Cmd.info "asc-top" ~doc)
    Term.(
      const run $ procs_arg $ workloads_arg $ scale_arg $ key_arg $ os_arg $ json_arg
      $ Common.no_fastpath_arg)

let () = exit (Cmd.eval' cmd)
