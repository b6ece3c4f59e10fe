(* Running jobs: the timed part of a job is [Kernel.spawn] + [Kernel.run]
   to the terminal stop; what it printed and wrote is compared afterwards. *)

open Oskernel
open Util

type outcome = {
  stop : string;
  stdout : Digest.t;
  files : (string * string option) list;  (* changed paths, new digest *)
}

type result = {
  outcome : outcome;
  killed : bool;
  deny_step : Violation.step option;
  ns : int;          (* spawn to terminal stop, on the reference host *)
  raw_ns : int;      (* the same, as measured *)
  spawn_ns : int;
  run_ns : int;
  words : int;       (* host minor words allocated in that interval *)
  traps : int;
  cycles : int;      (* modeled cycles of the process *)
  instrs : int;
}

let stop_name = function
  | Svm.Machine.Halted n -> Printf.sprintf "exit %d" n
  | Svm.Machine.Killed _ -> "killed"
  | Svm.Machine.Faulted _ -> "fault"
  | Svm.Machine.Cycle_limit -> "cycle limit"

(* The run is timed in slices of this many modeled cycles (a cycle-limit
   stop resumes), with a calibration between slices, so host-speed swings
   inside a long job are scaled out slice by slice. *)
let slice_cycles = 2_000_000

(* Run one job; [Error] when an OCaml exception escaped spawn or run. *)
let exec ?lay ?(track = 0) kernel ~image ~stdin ~program =
  let vfs = kernel.Kernel.vfs in
  let before = Vfs_snap.digests vfs in
  let traps0 = Kernel.syscall_count kernel in
  Option.iter
    (fun (l : Layers.t) ->
      l.last_deny <- None;
      l.track <- track;
      if l.tracing then Asc_obs.Trace.name_track l.spans ~track program)
    lay;
  let calib = ref (calibrate ()) and scaled = ref 0. and words = ref 0 in
  (* time [f], excluding the calibration that follows it *)
  let timed name f =
    let w0 = minor_words () in
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    words := !words + (minor_words () - w0);
    let after = calibrate () in
    scaled := !scaled +. (float (t1 - t0) *. host_scale ~before:!calib ~after);
    calib := after;
    Option.iter (fun l -> Layers.span l name ~t0 ~t1) lay;
    (v, t1 - t0)
  in
  match timed "kernel.spawn" (fun () -> Kernel.spawn kernel ~stdin ~program image) with
  | exception e -> Error e
  | p, spawn_ns ->
    let m = p.Process.machine in
    let rec run run_ns =
      let limit = min Workload.max_cycles (m.Svm.Machine.cycles + slice_cycles) in
      let stop, ns = timed "kernel.run" (fun () -> Kernel.run kernel p ~max_cycles:limit) in
      match stop with
      | Svm.Machine.Cycle_limit when m.cycles < Workload.max_cycles ->
        m.stopped <- None;
        run (run_ns + ns)
      | stop -> (stop, run_ns + ns)
    in
    (match run 0 with
     | exception e -> Error e
     | stop, run_ns ->
       let outcome =
         { stop = stop_name stop;
           stdout = Digest.string (Kernel.stdout_of p);
           files = Vfs_snap.diff before (Vfs_snap.digests vfs) }
       in
       Ok
         { outcome;
           killed = (match stop with Svm.Machine.Killed _ -> true | _ -> false);
           deny_step = Option.bind lay (fun (l : Layers.t) -> l.last_deny);
           ns = int_of_float !scaled;
           raw_ns = spawn_ns + run_ns;
           spawn_ns;
           run_ns;
           words = !words;
           traps = Kernel.syscall_count kernel - traps0;
           cycles = m.cycles;
           instrs = m.instrs })

type expected = {
  e_outcome : outcome;
  e_cycles : int;
}

(* The original pass (untimed): every benign job's uninstalled binary, run
   in the same order on a kernel with no monitor. *)
let expectations (w : Workload.t) =
  let kernel = Kernel.create ~personality:Workload.personality () in
  w.prepare kernel;
  let base = Vfs_snap.snapshot kernel.Kernel.vfs in
  Array.map
    (fun round ->
      let r =
        Array.map
          (fun (job : Workload.job) ->
            match job.orig with
            | None -> None
            | Some image ->
              (match exec kernel ~image ~stdin:job.stdin ~program:job.tool with
               | Ok r -> Some { e_outcome = r.outcome; e_cycles = r.cycles }
               | Error e ->
                 failwith
                   (Printf.sprintf "original %s raised %s" job.tool (Printexc.to_string e))))
          round
      in
      Vfs_snap.restore kernel.Kernel.vfs ~base;
      r)
    w.rounds

(* A job is correct when it behaves exactly like its original binary, or —
   when tampered — is killed at its expected verification step. *)
let correct (job : Workload.job) expected = function
  | Error _ -> false
  | Ok r ->
    (match (job.expect, expected) with
     | Workload.Benign, Some e -> r.outcome = e.e_outcome
     | Workload.Denied step, _ -> r.killed && r.deny_step = Some step
     | Workload.Benign, None -> false)
