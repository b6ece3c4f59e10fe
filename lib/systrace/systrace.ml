open Oskernel

type policy = {
  named : Syscall.Set.t;
  use_aliases : bool;
}

let fsread_sems =
  [ Syscall.Open; Syscall.Read; Syscall.Stat; Syscall.Fstat; Syscall.Access;
    Syscall.Readlink; Syscall.Getdirentries; Syscall.Lseek ]

let fswrite_sems =
  [ Syscall.Write; Syscall.Mkdir; Syscall.Rmdir; Syscall.Unlink; Syscall.Rename;
    Syscall.Symlink; Syscall.Chmod ]

let train ~personality ~image ~runs ~stdins ~use_aliases =
  let observed = ref Syscall.Set.empty in
  let pairs =
    match (runs, stdins) with
    | [], [] -> [ ((fun (_ : Kernel.t) -> ()), "") ]
    | rs, ss ->
      let n = max (List.length rs) (List.length ss) in
      List.init n (fun i ->
          ( (try List.nth rs i with _ -> fun (_ : Kernel.t) -> ()),
            try List.nth ss i with _ -> "" ))
  in
  List.iter
    (fun (setup, stdin) ->
      let kernel = Kernel.create ~personality () in
      setup kernel;
      kernel.Kernel.tracing <- true;
      let proc = Kernel.spawn kernel ~stdin ~program:"train" image in
      ignore (Kernel.run kernel proc ~max_cycles:500_000_000);
      List.iter
        (fun t ->
          match t.Kernel.t_sem with
          | Some s -> observed := Syscall.Set.add s !observed
          | None -> ())
        (Kernel.trace kernel))
    pairs;
  { named = !observed; use_aliases }

let granted p =
  if not p.use_aliases then p.named
  else
    List.fold_left
      (fun acc s -> Syscall.Set.add s acc)
      p.named (fsread_sems @ fswrite_sems)

let named_rule_count p =
  if not p.use_aliases then Syscall.Set.cardinal p.named
  else begin
    let aliased = Syscall.Set.of_list (fsread_sems @ fswrite_sems) in
    let plain = Syscall.Set.diff p.named aliased in
    (* the policy file lists the plain rules plus the two alias rules *)
    Syscall.Set.cardinal plain + 2
  end

let ctr_switches =
  Asc_obs.Metrics.counter Asc_obs.Metrics.default "systrace.context_switches"

let monitor ~personality p =
  let allowed = granted p in
  { Kernel.monitor_name = "systrace";
    pre_syscall =
      (fun proc ~site:_ ~number ->
        let m = proc.Process.machine in
        (* user-space daemon: switch to the monitor process and back *)
        Asc_obs.Metrics.add ctr_switches 2;
        m.Svm.Machine.cycles <- m.Svm.Machine.cycles + (2 * Svm.Cost_model.context_switch);
        let sem =
          match Personality.sem_of personality number with
          | Some Syscall.Indirect ->
            Personality.indirect_target personality m.Svm.Machine.regs.(1)
          | other -> other
        in
        match sem with
        | Some s when Syscall.Set.mem s allowed -> Kernel.Allow
        | Some s -> Kernel.Deny (Printf.sprintf "systrace: %s not permitted" (Syscall.name s))
        | None -> Kernel.Deny (Printf.sprintf "systrace: unknown syscall %d" number));
    post_syscall = Kernel.no_post }

let pp_policy ppf p =
  Format.fprintf ppf "policy (%d rules%s):@\n" (named_rule_count p)
    (if p.use_aliases then ", fsread/fswrite" else "");
  Syscall.Set.iter (fun s -> Format.fprintf ppf "  permit %s@\n" (Syscall.name s)) p.named
