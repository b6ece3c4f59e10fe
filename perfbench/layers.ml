(* Layer timing taken from outside: wrappers around the kernel's monitor
   record and lifecycle-hook list, and around setup-time calls. While
   [tracing] is off the wrappers only note deny verdicts; while it is on they
   time every call, classify every trap by which fast-path counter moved
   during it, and record spans (one track per job) into an in-memory
   [Asc_obs.Trace] collector. *)

open Oskernel
open Util
module Precomp = Asc_core.Precomp
module Cfpre = Asc_core.Cfpre

type path =
  | Fast  (* precomp proved the call MAC and cfpre the control flow *)
  | Slow  (* allowed, but some step took the slow path *)
  | Deny

let path_name = function
  | Fast -> "fast"
  | Slow -> "slow"
  | Deny -> "deny"

let path_index = function
  | Fast -> 0
  | Slow -> 1
  | Deny -> 2

let pre_span_names = [| "checker.pre.fast"; "checker.pre.slow"; "checker.pre.deny" |]
let lifecycle_names = [| "spawn"; "exec"; "exit" |]
let lifecycle_span_names = [| "lifecycle.spawn"; "lifecycle.exec"; "lifecycle.exit" |]

type t = {
  mutable tracing : bool;
  mutable last_deny : Violation.step option;  (* reset by the runner per job *)
  mutable track : int;                        (* span track: the current job *)
  origin : int;                               (* span timestamps are ns since *)
  spans : Asc_obs.Trace.t;
  pre_ns : samples;                           (* traced pre_syscall durations *)
  path_n : int array;                         (* by [path_index] *)
  path_ns : int array;
  path_cycles : int array;                    (* modeled cycles charged in pre *)
  mutable monitor_ns : int;                   (* pre + post, traced *)
  lc_n : int array;                           (* by lifecycle event kind *)
  lc_ns : int array;
  (* setup-time layer calls, always timed (they are coarse) *)
  compile_ns : samples;
  install_ns : samples;
  mutable sites : int;
  mutable asc_bytes : int;
}

let create () =
  { tracing = false;
    last_deny = None;
    track = 0;
    origin = now_ns ();
    spans = Asc_obs.Trace.create ~capacity:20_000 ();
    pre_ns = samples ();
    path_n = Array.make 3 0;
    path_ns = Array.make 3 0;
    path_cycles = Array.make 3 0;
    monitor_ns = 0;
    lc_n = Array.make 3 0;
    lc_ns = Array.make 3 0;
    compile_ns = samples ();
    install_ns = samples ();
    sites = 0;
    asc_bytes = 0 }

let span t ?(cat = "layer") name ~t0 ~t1 =
  if t.tracing then
    Asc_obs.Trace.complete t.spans ~cat ~track:t.track ~name ~ts:(t0 - t.origin) ~dur:(t1 - t0) ()

(* Time a coarse setup call into [acc] (and a span when tracing). *)
let timed t acc name f =
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  push acc (t1 - t0);
  span t ~cat:"setup" name ~t0 ~t1;
  v

let compile t ~personality src =
  match timed t t.compile_ns "minic.compile" (fun () -> Minic.Driver.compile ~personality src) with
  | Ok img -> img
  | Error e -> failwith ("compile: " ^ e)

let install t ~key ~personality ~options ~program img =
  match
    timed t t.install_ns "installer.install" (fun () ->
        Asc_core.Installer.install ~key ~personality ~options ~program img)
  with
  | Ok inst ->
    t.sites <- t.sites + inst.Asc_core.Installer.sites;
    t.asc_bytes <- t.asc_bytes + inst.Asc_core.Installer.asc_bytes;
    inst.Asc_core.Installer.image
  | Error e -> failwith (Printf.sprintf "install %s: %s" program e)

let traced_pre t (inner : Kernel.monitor) ~precomp ~cfpre (p : Process.t) ~site ~number =
  let m = p.machine in
  let proved0 = Precomp.hits precomp + Precomp.resumes precomp in
  let cf0 = Cfpre.hits cfpre in
  let cycles0 = m.cycles in
  let t0 = now_ns () in
  let verdict = inner.pre_syscall p ~site ~number in
  let t1 = now_ns () in
  let dt = t1 - t0 in
  let path =
    match verdict with
    | Kernel.Deny_violation v ->
      t.last_deny <- Some v.Violation.v_step;
      Deny
    | Kernel.Deny _ -> Deny
    | Kernel.Allow ->
      let cf_ok =
        (not (Asc_core.Descriptor.has_control_flow m.regs.(7))) || Cfpre.hits cfpre > cf0
      in
      if Precomp.hits precomp + Precomp.resumes precomp > proved0 && cf_ok then Fast else Slow
  in
  let i = path_index path in
  push t.pre_ns dt;
  t.monitor_ns <- t.monitor_ns + dt;
  t.path_n.(i) <- t.path_n.(i) + 1;
  t.path_ns.(i) <- t.path_ns.(i) + dt;
  t.path_cycles.(i) <- t.path_cycles.(i) + (m.cycles - cycles0);
  span t ~cat:"checker" pre_span_names.(i) ~t0 ~t1;
  verdict

(* Wrap the kernel's monitor and its lifecycle-hook list. Call once, after
   the checker has registered its hooks. *)
let attach t kernel ~precomp ~cfpre =
  let inner =
    match kernel.Kernel.monitor with
    | Some m -> m
    | None -> invalid_arg "Layers.attach: kernel has no monitor"
  in
  let pre_syscall p ~site ~number =
    if t.tracing then traced_pre t inner ~precomp ~cfpre p ~site ~number
    else
      match inner.pre_syscall p ~site ~number with
      | Kernel.Deny_violation v as verdict ->
        t.last_deny <- Some v.Violation.v_step;
        verdict
      | verdict -> verdict
  in
  let post_syscall p ~site ~sem ~result =
    if t.tracing then begin
      let t0 = now_ns () in
      inner.post_syscall p ~site ~sem ~result;
      t.monitor_ns <- t.monitor_ns + (now_ns () - t0)
    end
    else inner.post_syscall p ~site ~sem ~result
  in
  Kernel.set_monitor kernel
    (Some { Kernel.monitor_name = inner.Kernel.monitor_name; pre_syscall; post_syscall });
  let hooks = kernel.Kernel.lifecycle_hooks in
  let run_all ev = List.iter (fun f -> f ev) hooks in
  kernel.Kernel.lifecycle_hooks <-
    [ (fun ev ->
        if not t.tracing then run_all ev
        else begin
          let i =
            match ev with
            | Kernel.Proc_spawn _ -> 0
            | Kernel.Proc_exec _ -> 1
            | Kernel.Proc_exit _ -> 2
          in
          let t0 = now_ns () in
          run_all ev;
          let t1 = now_ns () in
          t.lc_n.(i) <- t.lc_n.(i) + 1;
          t.lc_ns.(i) <- t.lc_ns.(i) + (t1 - t0);
          span t lifecycle_span_names.(i) ~t0 ~t1
        end) ]
