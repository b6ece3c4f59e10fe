(* The fleet telemetry plane (Asc_obs.Telemetry).

   End-to-end: an enforced run must record exactly one reason code and
   one control-flow code per monitored call (the exhaustiveness invariant
   — each set of buckets sums to the kernel's trap count), charge exactly
   telemetry_record_cost per call to the self-overhead meter, and retire
   shards losslessly at process teardown. The QCheck property pins
   [aggregate] against the test's own fold of the recorded calls, through
   interleaved records and retires; two cases bound what a shard costs at
   spawn and at exit. *)

open Oskernel
module T = Asc_obs.Telemetry
module Cmac = Asc_crypto.Cmac

let key = Cmac.of_raw "telemetry-tstkey"
let personality = Personality.linux

let install ~program src =
  let img = Minic.Driver.compile_exn ~personality src in
  match Asc_core.Installer.install ~key ~personality ~program img with
  | Ok inst -> inst.Asc_core.Installer.image
  | Error e -> Alcotest.failf "install %s: %s" program e

let enforced_kernel () =
  let kernel = Kernel.create ~personality () in
  let { Asc_core.Checker.vcache; precomp; cfpre } = Asc_core.Checker.fastpath ~key kernel in
  Kernel.set_monitor kernel
    (Some (Asc_core.Checker.monitor ~kernel ~key ~vcache ~precomp ~cfpre ()));
  kernel

let loop_src =
  "int main() { int k; for (k = 0; k < 20; k = k + 1) { getpid(); } return 0; }"

(* ---- end-to-end invariants on a real enforced run ---- *)

let test_exhaustiveness () =
  let image = install ~program:"loop" loop_src in
  let kernel = enforced_kernel () in
  let proc = Kernel.spawn kernel ~program:"loop" image in
  (match Kernel.run kernel proc ~max_cycles:200_000_000 with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "run did not halt cleanly");
  let agg = T.aggregate (Kernel.telemetry kernel) in
  Alcotest.(check bool) "calls recorded" true (agg.T.t_calls > 0);
  Alcotest.(check int) "one reason per monitored call" agg.T.t_calls (T.reasons_total agg);
  Alcotest.(check int) "one control-flow code per monitored call" agg.T.t_calls
    (T.cf_total agg);
  Alcotest.(check int) "every trap recorded" (Kernel.syscall_count kernel) agg.T.t_calls;
  Alcotest.(check int) "self-overhead exactly accounted"
    (agg.T.t_calls * Svm.Cost_model.telemetry_record_cost)
    agg.T.t_self_cycles;
  Alcotest.(check bool) "verification cycles recorded" true (agg.T.t_cycles > 0);
  (* the hot loop must have taken the precomp fast path at least once *)
  Alcotest.(check bool) "precomp hits recorded" true
    (agg.T.t_reasons.(T.reason_index T.Precomp_hit) > 0)

let test_deny_recorded () =
  (* an unauthenticated image (no install) is denied on its first trap —
     which still records exactly one reason, a Deny with the step name *)
  let img = Minic.Driver.compile_exn ~personality "int main() { getpid(); return 0; }" in
  let kernel = enforced_kernel () in
  let proc = Kernel.spawn kernel ~program:"raw" img in
  (match Kernel.run kernel proc ~max_cycles:200_000_000 with
   | Svm.Machine.Killed _ -> ()
   | _ -> Alcotest.fail "unauthenticated run was not killed");
  let agg = T.aggregate (Kernel.telemetry kernel) in
  Alcotest.(check int) "one reason per call" agg.T.t_calls (T.reasons_total agg);
  Alcotest.(check int) "the deny is bucketed" 1 agg.T.t_reasons.(T.reason_index (T.Deny ""));
  Alcotest.(check bool) "deny step named" true
    (List.mem_assoc "unauthenticated" agg.T.t_deny_steps)

let test_shard_lifecycle () =
  let image = install ~program:"loop" loop_src in
  let kernel = enforced_kernel () in
  let tel = Kernel.telemetry kernel in
  let proc = Kernel.spawn kernel ~program:"loop" image in
  Alcotest.(check (list int)) "shard live after spawn" [ proc.Process.pid ]
    (T.live_pids tel);
  ignore (Kernel.run kernel proc ~max_cycles:200_000_000);
  (* terminal stop retired the shard; its counts survive in the aggregate *)
  Alcotest.(check (list int)) "shard retired at teardown" [] (T.live_pids tel);
  Alcotest.(check (list (pair int string))) "ledger released" []
    (List.map (fun _ -> (0, "")) (T.ledger tel ~pid:proc.Process.pid));
  let agg = T.aggregate tel in
  Alcotest.(check int) "retired counts conserved" (Kernel.syscall_count kernel) agg.T.t_calls;
  Alcotest.(check int) "one retired shard counted" 1 agg.T.t_shards;
  (* a second run stopped half-way keeps its shard live: what it recorded
     is the aggregate's delta, its ledger holds one entry per call, and
     the self-overhead meter covers the retired calls and the live ones,
     one charge per call *)
  let proc2 = Kernel.spawn kernel ~program:"loop" image in
  let half = proc.Process.machine.Svm.Machine.cycles / 2 in
  (match Kernel.run kernel proc2 ~max_cycles:half with
   | Svm.Machine.Cycle_limit -> ()
   | _ -> Alcotest.fail "second run was not stopped half-way");
  Alcotest.(check (list int)) "second shard live" [ proc2.Process.pid ] (T.live_pids tel);
  let now = T.aggregate tel in
  let live_calls = now.T.t_calls - agg.T.t_calls in
  Alcotest.(check bool) "live shard recorded calls" true (live_calls > 0);
  Alcotest.(check int) "every trap recorded" (Kernel.syscall_count kernel) now.T.t_calls;
  Alcotest.(check int) "live and retired shards counted" 2 now.T.t_shards;
  Alcotest.(check int) "one ledger entry per live call" live_calls
    (List.length (T.ledger tel ~pid:proc2.Process.pid));
  Alcotest.(check int) "self cycles = retired + live charges"
    (now.T.t_calls * Svm.Cost_model.telemetry_record_cost)
    (T.self_cycles tel);
  Alcotest.(check int) "self cycles = the live calls' delta"
    (agg.T.t_self_cycles + (live_calls * Svm.Cost_model.telemetry_record_cost))
    now.T.t_self_cycles

let test_ledger_entries () =
  let t = T.create ~ring_capacity:4 () in
  let sh = T.shard t ~pid:9 in
  for i = 1 to 6 do
    T.record t sh ~site:(0x40 + i) ~sem:"read" ~reason:T.Slow_path ~cycles:(100 * i)
      ~alloc:(10 * i) ~now:(1000 * i)
  done;
  let entries = T.ledger t ~pid:9 in
  Alcotest.(check int) "ring bounded" 4 (List.length entries);
  (* oldest two dropped; remaining are in order with their stamps intact *)
  Alcotest.(check (list int)) "oldest first, bounded"
    [ 0x43; 0x44; 0x45; 0x46 ]
    (List.map (fun e -> e.T.le_site) entries);
  List.iter
    (fun e ->
      Alcotest.(check string) "sem kept" "read" e.T.le_sem;
      Alcotest.(check bool) "stamp kept" true (e.T.le_ts > 0))
    entries;
  Alcotest.(check (list int)) "alloc stamps kept" [ 30; 40; 50; 60 ]
    (List.map (fun e -> e.T.le_alloc) entries)

(* ---- the plane against its own fold ---- *)

let reasons_pool =
  [| T.Precomp_hit; T.Precomp_resumed; T.Precomp_fallback T.F_no_entry;
     T.Precomp_fallback T.F_statics; T.Precomp_fallback T.F_tag; T.Vcache_hit;
     T.Slow_path; T.Deny "call_mac"; T.Deny "control_flow" |]

let sems_pool = [| "read"; "write"; "open"; "close" |]

let cf_pool = [| T.Cf_none; T.Cf_hit; T.Cf_slow; T.Cf_fallback_ref; T.Cf_fallback_contents |]

(* each synthetic record's minor words and control-flow code are derived
   deterministically from its cycles, so both planes get the cycle
   plane's variety without widening the generator tuple *)
let alloc_of_cycles cycles = (cycles mod 977) + 1
let cf_of_cycles cycles = cf_pool.(cycles mod Array.length cf_pool)

(* The plane's two bucket ladders (telemetry.mli), and the slot a value
   falls in: the first bound at or above it, or the overflow slot. *)
let cycle_bounds = Array.of_list (Asc_obs.Metrics.log_linear_buckets ~lo:100 ~hi:1_000_000)
let alloc_bounds = Array.of_list (Asc_obs.Metrics.log_linear_buckets ~lo:10 ~hi:1_000_000)

let slot bounds v =
  let rec go i = if i >= Array.length bounds || v <= bounds.(i) then i else go (i + 1) in
  go 0

(* The stats of a list of (site, sem, reason, cycles) records and the
   self cycles noted with them, folded here from scratch. *)
let fold_records ~shards ~self records =
  let hist bounds vs =
    let counts = Array.make (Array.length bounds + 1) 0 in
    List.iter (fun v -> counts.(slot bounds v) <- counts.(slot bounds v) + 1) vs;
    { T.q_counts = counts; q_sum = List.fold_left ( + ) 0 vs; q_count = List.length vs }
  in
  let keys f = List.sort_uniq compare (List.map f records) in
  let where f k = List.filter (fun r -> f r = k) records in
  let site (s, _, _, _) = s and sem (_, s, _, _) = s and reason (_, _, r, _) = r in
  let cycles (_, _, _, c) = c in
  let reason_counts rs =
    let a = Array.make T.num_reasons 0 in
    List.iter (fun r -> a.(T.reason_index (reason r)) <- a.(T.reason_index (reason r)) + 1) rs;
    a
  in
  let allocs rs = List.map (fun r -> alloc_of_cycles (cycles r)) rs in
  let cf = Array.make T.num_cf_reasons 0 in
  List.iter (fun r -> let i = T.cf_index (cf_of_cycles (cycles r)) in cf.(i) <- cf.(i) + 1) records;
  let denies = List.filter_map (fun r -> match reason r with T.Deny s -> Some s | _ -> None) records in
  let sites = keys site in
  { T.t_shards = shards;
    t_calls = List.length records;
    t_cycles = List.fold_left ( + ) 0 (List.map cycles records);
    t_self_cycles = self;
    t_alloc_words = List.fold_left ( + ) 0 (allocs records);
    t_reasons = reason_counts records;
    t_cf = cf;
    t_deny_steps =
      List.map (fun s -> (s, List.length (List.filter (( = ) s) denies))) (List.sort_uniq compare denies);
    t_per_sem = List.map (fun k -> (k, hist cycle_bounds (List.map cycles (where sem k)))) (keys sem);
    t_sites = List.map (fun k -> (k, reason_counts (where site k))) sites;
    t_site_alloc = List.map (fun k -> (k, List.fold_left ( + ) 0 (allocs (where site k)))) sites;
    t_alloc = hist alloc_bounds (allocs records) }

(* 3-4 shards see records on a small shared pool of sites, syscalls and
   deny steps (so keys recur across shards) and are retired in random
   order, interleaved with records on the ones still live. After each
   retire the aggregate must equal, structurally, the test's fold of every
   call recorded so far, by live and retired shards alike: calls, cycles,
   reason and control-flow buckets, deny steps, per-syscall and alloc
   histograms, per-site counts and words, shards and self cycles; and
   [self_cycles] must read the aggregate's. *)
type event = Record of int * (int * int * int * int) | Retire

let events_arb =
  QCheck.(
    make
      ~print:(fun (n, order, evs) ->
        Printf.sprintf "%d shards, retire order [%s], %d events" n
          (String.concat ";" (List.map string_of_int order))
          (List.length evs))
      Gen.(
        let* n = int_range 3 4 in
        let* order = shuffle_l (List.init n Fun.id) in
        let* records =
          list_size (int_range 0 80)
            (map2
               (fun sh op -> Record (sh, op))
               (int_range 0 (n - 1))
               (quad (int_range 0 5) (int_range 0 (Array.length sems_pool - 1))
                  (int_range 0 (Array.length reasons_pool - 1))
                  (int_range 1 500_000)))
        in
        let* evs = shuffle_l (records @ List.init n (fun _ -> Retire)) in
        return (n, order, evs)))

let qcheck_aggregate_equals_fold =
  QCheck.Test.make ~name:"aggregate = fold of the recorded calls" ~count:100 events_arb
    (fun (n, order, evs) ->
      let t = T.create () in
      let pid i = i + 1 in
      let shards = Array.init n (fun i -> T.shard t ~pid:(pid i)) in
      let live = Array.make n true in
      let recorded = ref [] and self = ref 0 in
      let to_retire = ref order in
      let expected () = fold_records ~shards:n ~self:!self (List.rev !recorded) in
      let now = ref 0 in
      List.for_all
        (fun ev ->
          match ev with
          | Record (i, (site, sem, reason, cycles)) ->
            if live.(i) then begin
              incr now;
              T.record t shards.(i) ~site:(0x100 + site) ~sem:sems_pool.(sem)
                ~reason:reasons_pool.(reason) ~cf:(cf_of_cycles cycles) ~cycles
                ~alloc:(alloc_of_cycles cycles) ~now:!now;
              T.note_self t (1 + (cycles mod 10));
              recorded := (0x100 + site, sems_pool.(sem), reasons_pool.(reason), cycles) :: !recorded;
              self := !self + 1 + (cycles mod 10)
            end;
            true
          | Retire ->
            let i = List.hd !to_retire in
            to_retire := List.tl !to_retire;
            T.retire_pid t ~pid:(pid i);
            live.(i) <- false;
            let agg = T.aggregate t in
            agg = expected ()
            && T.self_cycles t = agg.T.t_self_cycles
            && T.live_pids t = List.filter (fun p -> live.(p - 1)) (List.init n pid))
        evs
      && T.aggregate t = expected ())

(* A retire drops the pid's ledger and nothing else: with 200 sites and
   20 syscalls already retired, retiring a one-site shard allocates at
   most 16 minor words (folding the shard's keys into a retired
   accumulator allocated 41; rebuilding the retired aggregate with a
   merge, 2,817). *)
let test_retire_allocation () =
  let t = T.create () in
  let sem i = Printf.sprintf "sys%d" (i mod 20) in
  for i = 0 to 199 do
    let sh = T.shard t ~pid:(i + 1) in
    T.record t sh ~site:(0x1000 + i) ~sem:(sem i) ~reason:T.Slow_path ~cycles:1000 ~alloc:50
      ~now:i;
    T.retire_pid t ~pid:(i + 1)
  done;
  let sh = T.shard t ~pid:1000 in
  T.record t sh ~site:0x2000 ~sem:(sem 0) ~reason:T.Precomp_hit ~cycles:900 ~alloc:40 ~now:1;
  let w0 = Asc_obs.Profile.minor_words () in
  T.retire_pid t ~pid:1000;
  let words = Asc_obs.Profile.minor_words () - w0 in
  if words > 16 then Alcotest.failf "retiring a one-site shard allocated %d words" words;
  let agg = T.aggregate t in
  Alcotest.(check int) "every retired site kept" 201 (List.length agg.T.t_sites);
  Alcotest.(check int) "every retired syscall kept" 20 (List.length agg.T.t_per_sem);
  Alcotest.(check (pair int int)) "the last site and its words" (0x2000, 40)
    (List.nth agg.T.t_site_alloc 200);
  Alcotest.(check int) "retired shards counted" 201 agg.T.t_shards;
  Alcotest.(check (list int)) "no shard live" [] (T.live_pids t)

(* A spawn's shard is a ledger with no slots yet: at most 16 minor words
   until its first record (a shard that held its counts and a 256-slot
   ledger cost 428). The first record makes the ledger's first slots. *)
let test_shard_allocation () =
  let t = T.create () in
  ignore (T.shard t ~pid:1);
  let w0 = Asc_obs.Profile.minor_words () in
  let sh = T.shard t ~pid:2 in
  let words = Asc_obs.Profile.minor_words () - w0 in
  if words > 16 then Alcotest.failf "a new shard allocated %d words" words;
  Alcotest.(check int) "an empty ledger" 0 (List.length (T.ledger t ~pid:2));
  T.record t sh ~site:0x40 ~sem:"read" ~reason:T.Slow_path ~cycles:1000 ~alloc:50 ~now:1;
  Alcotest.(check (list int)) "the first record is in the ledger" [ 0x40 ]
    (List.map (fun e -> e.T.le_site) (T.ledger t ~pid:2));
  Alcotest.(check int) "and in the plane" 1 (T.aggregate t).T.t_calls

(* ---- reason taxonomy ---- *)

let test_reason_taxonomy () =
  Alcotest.(check int) "labels cover every bucket" T.num_reasons
    (Array.length T.reason_labels);
  let distinct = List.sort_uniq compare (Array.to_list T.reason_labels) in
  Alcotest.(check int) "labels distinct" T.num_reasons (List.length distinct);
  Array.iter
    (fun r ->
      let i = T.reason_index r in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < T.num_reasons);
      Alcotest.(check string) "label agrees with index" T.reason_labels.(i)
        (T.reason_label r))
    reasons_pool;
  (* all Deny steps share one bucket *)
  Alcotest.(check int) "deny folds to one bucket"
    (T.reason_index (T.Deny "call_mac"))
    (T.reason_index (T.Deny "control_flow"))

let () =
  Alcotest.run "telemetry"
    [ ( "end-to-end",
        [ Alcotest.test_case "reason exhaustiveness" `Quick test_exhaustiveness;
          Alcotest.test_case "deny recorded with step" `Quick test_deny_recorded;
          Alcotest.test_case "shard lifecycle" `Quick test_shard_lifecycle;
          Alcotest.test_case "bounded ledger" `Quick test_ledger_entries ] );
      ( "plane",
        [ QCheck_alcotest.to_alcotest qcheck_aggregate_equals_fold;
          Alcotest.test_case "retire allocates only the shard's keys" `Quick
            test_retire_allocation;
          Alcotest.test_case "a shard is small until it records" `Quick test_shard_allocation ] );
      ( "taxonomy",
        [ Alcotest.test_case "labels exhaustive and distinct" `Quick test_reason_taxonomy ] ) ]
