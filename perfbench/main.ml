(* Host-measured trap benchmark: one workload, one seed, one process on one
   thread.

     python3 perfbench/run.py --workload hot_loop|tool_fleet|paper_suite \
       --seed N --seconds S --trace 0|1

   Phases: set-up (timed as setup_s; the median of several), the original
   pass (untimed: the expected outcome and modeled cycles of every benign
   job), then a closed loop of rounds for S seconds. With --trace 0 the loop
   runs untraced and the end-to-end metrics are printed. With --trace 1 a
   quarter of the time runs untraced and the rest traced; the per-layer
   metrics, the model-versus-host table and the tracing overhead are
   printed, and the spans are written to .bench_out/. The last stdout line
   is one JSON object. *)

open Oskernel
open Util
module Precomp = Asc_core.Precomp
module Cfpre = Asc_core.Cfpre
module Vcache = Asc_core.Vcache

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
}

let usage =
  "usage: main.exe --workload hot_loop|tool_fleet|paper_suite --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := int_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | a :: _ ->
      prerr_endline ("unknown argument " ^ a ^ "\n" ^ usage);
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when List.mem !workload Workload.names && seconds >= 1 ->
    { workload = !workload; seed; seconds; trace }
  | _ ->
    prerr_endline usage;
    exit 2

(* Counters the layers publish, read at phase boundaries. *)
type counters = {
  reg : (string * int) list;  (* the kernel registry: checker.*, kernel.*, svm.* *)
  reasons : int array;        (* Telemetry.aggregate, by reason index *)
  self_cycles : int;          (* telemetry's own modeled cycles *)
  audit : int;                (* audit entries pushed *)
  precomp : int array;        (* hits resumes misses fallbacks compiles *)
  cfpre : int array;          (* hits misses fallbacks compiles *)
  vcache : int array;         (* hits misses evictions *)
}

let read_counters (w : Workload.t) =
  let k = w.kernel in
  let reg = Kernel.metrics k and tel = Kernel.telemetry k in
  { reg =
      List.filter_map
        (fun n -> Option.map (fun v -> (n, v)) (Asc_obs.Metrics.value reg n))
        (Asc_obs.Metrics.names reg);
    reasons = Array.copy (Asc_obs.Telemetry.aggregate tel).Asc_obs.Telemetry.t_reasons;
    self_cycles = Asc_obs.Telemetry.self_cycles tel;
    audit = Asc_obs.Ring.pushed k.Kernel.audit;
    precomp =
      Precomp.
        [| hits w.precomp; resumes w.precomp; misses w.precomp; fallbacks w.precomp;
           compiles w.precomp |];
    cfpre = Cfpre.[| hits w.cfpre; misses w.cfpre; fallbacks w.cfpre; compiles w.cfpre |];
    vcache = Vcache.[| hits w.vcache; misses w.vcache; evictions w.vcache |] }

let sub_counters a b =
  { reg = List.map (fun (n, v) -> (n, v - Option.value ~default:0 (List.assoc_opt n a.reg))) b.reg;
    reasons = Array.map2 ( - ) b.reasons a.reasons;
    self_cycles = b.self_cycles - a.self_cycles;
    audit = b.audit - a.audit;
    precomp = Array.map2 ( - ) b.precomp a.precomp;
    cfpre = Array.map2 ( - ) b.cfpre a.cfpre;
    vcache = Array.map2 ( - ) b.vcache a.vcache }

let reg_value c name = Option.value ~default:0 (List.assoc_opt name c.reg)

(* One closed loop of rounds. The prefix — the first pass through every
   distinct round — gives the deterministic metrics. *)
type phase = {
  job_ns : samples;
  spawn_ns : samples;
  deny_ns : samples;             (* tampered jobs *)
  mutable round_rates : float list;  (* traps per job-second, one per round *)
  mutable scales : float list;       (* reference-host scale, one per job *)
  mutable raw_job_ns : int;          (* job time as measured *)
  mutable jobs : int;
  mutable failed : int;
  mutable traps : int;
  mutable run_ns : int;
  mutable instrs : int;
  mutable rounds : int;
  mutable p_jobs : int;
  mutable p_traps : int;
  mutable p_words : int;
  mutable p_instrs : int;
  mutable p_auth_cycles : int;   (* benign jobs, monitored *)
  mutable p_orig_cycles : int;   (* the same jobs, original binaries *)
  mutable prefix : counters option;
}

let reported = ref 0

let note_failure (job : Workload.job) (expected : Runner.expected option) res =
  if !reported < 5 then begin
    incr reported;
    let got =
      match res with
      | Error e -> "exception " ^ Printexc.to_string e
      | Ok (r : Runner.result) ->
        Printf.sprintf "%s, deny step %s, %d changed paths" r.outcome.stop
          (match r.deny_step with Some s -> Violation.step_name s | None -> "none")
          (List.length r.outcome.files)
    in
    let want =
      match (job.expect, expected) with
      | Workload.Denied s, _ -> "denied at " ^ Violation.step_name s
      | Workload.Benign, Some e ->
        Printf.sprintf "%s, %d changed paths" e.e_outcome.stop (List.length e.e_outcome.files)
      | Workload.Benign, None -> "an original run"
    in
    Printf.eprintf "job %s failed: expected %s, got %s\n%!" job.tool want got
  end

let run_phase (w : Workload.t) lay ~expected ~seconds_ns ~min_rounds ~track =
  let ph =
    { job_ns = samples (); spawn_ns = samples (); deny_ns = samples (); round_rates = [];
      scales = []; raw_job_ns = 0; jobs = 0; failed = 0; traps = 0; run_ns = 0; instrs = 0;
      rounds = 0; p_jobs = 0; p_traps = 0; p_words = 0; p_instrs = 0; p_auth_cycles = 0;
      p_orig_cycles = 0; prefix = None }
  in
  let nrounds = Array.length w.rounds in
  let c0 = read_counters w in
  let deadline = now_ns () + seconds_ns in
  while ph.rounds < min_rounds || now_ns () < deadline do
    let r = ph.rounds mod nrounds in
    let in_prefix = ph.rounds < nrounds in
    let traps0 = ph.traps and ns0 = sum ph.job_ns in
    Array.iteri
      (fun i (job : Workload.job) ->
        incr track;
        let res =
          Runner.exec ~lay ~track:!track w.kernel ~image:job.image ~stdin:job.stdin
            ~program:job.tool
        in
        let e = expected.(r).(i) in
        ph.jobs <- ph.jobs + 1;
        if not (Runner.correct job e res) then begin
          ph.failed <- ph.failed + 1;
          note_failure job e res
        end;
        match res with
        | Error _ -> ()
        | Ok x ->
          push ph.job_ns x.ns;
          ph.raw_job_ns <- ph.raw_job_ns + x.raw_ns;
          ph.scales <- fratio x.ns x.raw_ns :: ph.scales;
          push ph.spawn_ns x.spawn_ns;
          if job.expect <> Workload.Benign then push ph.deny_ns x.ns;
          ph.traps <- ph.traps + x.traps;
          ph.run_ns <- ph.run_ns + x.run_ns;
          ph.instrs <- ph.instrs + x.instrs;
          if in_prefix then begin
            ph.p_jobs <- ph.p_jobs + 1;
            ph.p_traps <- ph.p_traps + x.traps;
            ph.p_words <- ph.p_words + x.words;
            ph.p_instrs <- ph.p_instrs + x.instrs;
            match (job.expect, e) with
            | Workload.Benign, Some e ->
              ph.p_auth_cycles <- ph.p_auth_cycles + x.cycles;
              ph.p_orig_cycles <- ph.p_orig_cycles + e.e_cycles
            | _ -> ()
          end)
      w.rounds.(r);
    ph.round_rates <-
      ratio (float (ph.traps - traps0)) (float (sum ph.job_ns - ns0) /. 1e9) :: ph.round_rates;
    Vfs_snap.restore w.kernel.Kernel.vfs ~base:w.base;
    ph.rounds <- ph.rounds + 1;
    if ph.rounds = nrounds then ph.prefix <- Some (sub_counters c0 (read_counters w))
  done;
  ph

(* Throughput of the closed loop: monitored traps per second of job time,
   the median over rounds so that a stall in one round does not move it. *)
let traps_per_s ph = median_float ph.round_rates

(* name, unit, value *)
type metric = string * string * float

let end_to_end ~setup_s ph p : metric list =
  let jobs = sorted ph.job_ns in
  let tail = tail_percentile (Array.length jobs) in
  let per_trap n = fratio n ph.p_traps in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [ ("setup_s", "s", setup_s);
    ("traps_per_s", "1/s", traps_per_s ph);
    ("job_ms_p50", "ms", median jobs /. 1e6);
    ("job_ms_tail", "ms", quantile jobs (tail /. 100.) /. 1e6);
    ("alloc_words_per_trap", "words", per_trap ph.p_words);
    ("top_heap_mb", "MiB", float heap /. 1048576.);
    ("modeled_cycles_per_trap", "cycles", per_trap (reg_value p "checker.cycles.total" + p.self_cycles));
    ("modeled_overhead_pct", "%", 100. *. (fratio ph.p_auth_cycles ph.p_orig_cycles -. 1.)) ]

let paths = Layers.[ Fast; Slow; Deny ]
let checker_steps = [ "call_mac"; "string_mac"; "control_flow"; "ext" ]

let path_mean (lay : Layers.t) arr path =
  let i = Layers.path_index path in
  fratio arr.(i) lay.path_n.(i)

let per_layer (lay : Layers.t) ~untraced:u ~traced:t p ~micro ~misranked : metric list =
  let per_trap n = fratio n u.p_traps in
  let med_us s = median (sorted s) /. 1e3 in
  let alloc_steps = checker_steps @ [ "telemetry" ] in
  let alloc_known =
    List.fold_left (fun acc s -> acc + reg_value p ("checker.alloc." ^ s)) 0 alloc_steps
  in
  let svm_self = t.run_ns - lay.monitor_ns - lay.lc_ns.(1) - lay.lc_ns.(2) in
  let pre = sorted lay.pre_ns in
  let count name v = (name, "count", float v) in
  let pc i = p.precomp.(i) and cf i = p.cfpre.(i) and vc i = p.vcache.(i) in
  List.concat
    [ [ ("minic.compile_ms", "ms", median (sorted lay.compile_ns) /. 1e6);
        ("installer.install_ms", "ms", median (sorted lay.install_ns) /. 1e6);
        count "installer.sites" lay.sites;
        ("installer.asc_bytes", "bytes", float lay.asc_bytes);
        ("svm.instructions", "count/job", fratio u.p_instrs u.p_jobs);
        ("svm.host_ns_per_instr", "ns", fratio svm_self t.instrs);
        ("kernel.spawn_us", "us", med_us t.spawn_ns) ];
      List.mapi
        (fun i n -> ("kernel.lifecycle_us." ^ n, "us", fratio lay.lc_ns.(i) lay.lc_n.(i) /. 1e3))
        (Array.to_list Layers.lifecycle_names);
      [ count "kernel.traps" u.p_traps;
        count "kernel.denied" (reg_value p "kernel.syscalls.denied");
        ("checker.pre_us_p50", "us", quantile pre 0.5 /. 1e3);
        ("checker.pre_us_p99", "us", quantile pre 0.99 /. 1e3);
        ("checker.host_share_pct", "%", 100. *. fratio lay.monitor_ns t.raw_job_ns) ];
      List.map
        (fun path ->
          ("checker.pre_us." ^ Layers.path_name path, "us", path_mean lay lay.path_ns path /. 1e3))
        paths;
      List.map
        (fun path ->
          let i = Layers.path_index path in
          ( "checker.ns_per_modeled_cycle." ^ Layers.path_name path,
            "ns/cycle",
            fratio lay.path_ns.(i) lay.path_cycles.(i) ))
        Layers.[ Fast; Slow ];
      List.map
        (fun s ->
          ("checker.modeled_cycles." ^ s, "cycles/trap", per_trap (reg_value p ("checker.cycles." ^ s))))
        checker_steps;
      List.map
        (fun s ->
          ("checker.alloc_words." ^ s, "words/trap", per_trap (reg_value p ("checker.alloc." ^ s))))
        alloc_steps;
      [ ("checker.alloc_words.other", "words/trap", per_trap (u.p_words - alloc_known));
        count "precomp.hits" (pc 0);
        count "precomp.resumes" (pc 1);
        count "precomp.misses" (pc 2);
        count "precomp.fallbacks" (pc 3);
        count "precomp.compiles" (pc 4);
        ("precomp.useful_ratio", "ratio", fratio (pc 0 + pc 1) (pc 0 + pc 1 + pc 2 + pc 3));
        count "cfpre.hits" (cf 0);
        count "cfpre.misses" (cf 1);
        count "cfpre.fallbacks" (cf 2);
        count "cfpre.compiles" (cf 3);
        ("cfpre.hit_ratio", "ratio", fratio (cf 0) (cf 0 + cf 1 + cf 2));
        count "vcache.hits" (vc 0);
        count "vcache.misses" (vc 1);
        count "vcache.evictions" (vc 2);
        ("vcache.hit_ratio", "ratio", fratio (vc 0) (vc 0 + vc 1)) ];
      List.map (fun (op : Micro.op) -> (op.name, "ns", op.host_ns)) micro;
      Array.to_list
        (Array.mapi
           (fun i label -> count ("telemetry.reasons." ^ label) p.reasons.(i))
           Asc_obs.Telemetry.reason_labels);
      [ ("telemetry.self_cycles", "cycles/trap", per_trap p.self_cycles);
        ("deny.job_us_p50", "us", med_us t.deny_ns);
        count "audit.violations" p.audit;
        ("trace.overhead_pct", "%", 100. *. (ratio (traps_per_s u) (traps_per_s t) -. 1.));
        count "model.misranked_pairs" misranked ] ]

(* Host ns beside modeled cycles for each checker path and each single
   operation; a pair is misranked when the model orders it differently from
   the host. Report-only. *)
let model_table (lay : Layers.t) micro =
  let rows =
    List.filter_map
      (fun path ->
        let i = Layers.path_index path in
        if lay.path_n.(i) = 0 then None
        else
          Some
            ( "checker.pre." ^ Layers.path_name path,
              path_mean lay lay.path_ns path,
              path_mean lay lay.path_cycles path ))
      paths
    @ List.map (fun (op : Micro.op) -> (op.name, op.host_ns, float op.modeled)) micro
  in
  Printf.printf "\nmodel vs host (report only)\n  %-28s %12s %12s %10s\n" "operation" "host ns"
    "modeled cyc" "ns/cycle";
  List.iter
    (fun (name, h, m) -> Printf.printf "  %-28s %12.1f %12.1f %10.3f\n" name h m (ratio h m))
    rows;
  let misranked = ref 0 in
  List.iteri
    (fun i (a, ha, ma) ->
      List.iteri
        (fun j (b, hb, mb) ->
          if i < j && (ha -. hb) *. (ma -. mb) < 0. then begin
            incr misranked;
            Printf.printf "  misranked: %s vs %s (host %s, model %s)\n" a b
              (if ha < hb then "<" else ">")
              (if ma < mb then "<" else ">")
          end)
        rows)
    rows;
  !misranked

let print_metrics title (ms : metric list) =
  Printf.printf "\n%s\n" title;
  List.iter (fun (n, u, v) -> Printf.printf "  %-40s %16.4f %s\n" n v u) ms

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~attempted ~failed (ms : metric list) =
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed body

let write_trace (lay : Layers.t) a =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/%s-seed%d.trace.json" dir a.workload a.seed in
  let oc = open_out path in
  output_string oc (Asc_obs.Trace.chrome_string lay.spans);
  close_out oc;
  Printf.printf "\nspans: %s (%d kept, %d dropped)\n" path (Asc_obs.Trace.length lay.spans)
    (Asc_obs.Trace.dropped lay.spans)

(* Set-up is repeated until at least [min_setups] runs and [min_setup_s]
   seconds (at most [max_setups] runs); setup_s is the median. *)
let min_setups = 5
let min_setup_s = 0.5
let max_setups = 50

(* The untraced loop runs at least this many jobs, so the tail percentile
   does not change between runs of one workload. *)
let min_jobs = 100

let () =
  let a = parse_args () in
  let lay = Layers.create () in
  lay.tracing <- a.trace;
  let times = ref [] and last = ref None in
  while
    let n = List.length !times in
    n < max_setups && (n < min_setups || List.fold_left ( +. ) 0. !times < min_setup_s)
  do
    Gc.full_major ();
    lay.sites <- 0;
    lay.asc_bytes <- 0;
    let before = calibrate () in
    let t0 = now_ns () in
    let w = Workload.setup lay ~name:a.workload ~seed:a.seed in
    let t1 = now_ns () in
    let scale = host_scale ~before ~after:(calibrate ()) in
    times := (float (t1 - t0) /. 1e9 *. scale) :: !times;
    last := Some w
  done;
  lay.tracing <- false;
  let w = Option.get !last in
  let expected = Runner.expectations w in
  let nrounds = Array.length w.rounds in
  let min_rounds =
    max nrounds ((min_jobs + Array.length w.rounds.(0) - 1) / Array.length w.rounds.(0))
  in
  let track = ref 0 in
  let phase ~seconds_ns ~min_rounds =
    Gc.full_major ();
    run_phase w lay ~expected ~seconds_ns ~min_rounds ~track
  in
  let budget = a.seconds * 1_000_000_000 in
  Printf.printf "perfbench %s  seed %d  seconds %d  trace %d  (%d distinct rounds of %d jobs)\n"
    a.workload a.seed a.seconds (Bool.to_int a.trace) nrounds (Array.length w.rounds.(0));
  if not a.trace then begin
    let ph = phase ~seconds_ns:budget ~min_rounds in
    let ms = end_to_end ~setup_s:(median_float !times) ph (Option.get ph.prefix) in
    print_metrics "end-to-end (tracing off)" ms;
    let n = ph.job_ns.len in
    Printf.printf "  %-40s %16.4f %%\n" "fail_pct" (100. *. fratio ph.failed ph.jobs);
    Printf.printf "  job_ms_tail is p%g of %d jobs; %d rounds, %d traps\n" (tail_percentile n) n
      ph.rounds ph.traps;
    Printf.printf "  host times are on the reference host: median job scale %.3f\n"
      (median_float ph.scales);
    Printf.printf "  setup_s is the median of %d set-ups (%.4f .. %.4f s)\n" (List.length !times)
      (List.fold_left min infinity !times)
      (List.fold_left max 0. !times);
    emit ~attempted:ph.jobs ~failed:ph.failed ms
  end
  else begin
    let u = phase ~seconds_ns:(budget / 4) ~min_rounds:nrounds in
    lay.tracing <- true;
    let t = phase ~seconds_ns:(budget - (budget / 4)) ~min_rounds:1 in
    lay.tracing <- false;
    let micro = Micro.run () in
    let misranked = model_table lay micro in
    let ms = per_layer lay ~untraced:u ~traced:t (Option.get u.prefix) ~micro ~misranked in
    print_metrics "per-layer (traced run)" ms;
    Printf.printf "  traps_per_s untraced %.1f, traced %.1f\n" (traps_per_s u) (traps_per_s t);
    write_trace lay a;
    emit ~attempted:(u.jobs + t.jobs) ~failed:(u.failed + t.failed) ms
  end
