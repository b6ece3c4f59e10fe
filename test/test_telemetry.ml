(* The fleet telemetry plane (Asc_obs.Telemetry).

   End-to-end: an enforced run must record exactly one reason code per
   monitored call (the exhaustiveness invariant — reason buckets sum to
   the kernel's trap count), charge exactly telemetry_record_cost per call
   to the self-overhead meter, and retire shards losslessly at process
   teardown. The QCheck properties pin the merge algebra: commutative,
   associative, and count-conserving on every scalar, bucket and assoc
   leaf — the contract that makes read-side aggregation order-independent
   over concurrently written shards. *)

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
  Alcotest.(check int) "one retired shard folded" 1 agg.T.t_shards

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

(* ---- the merge algebra ---- *)

let reasons_pool =
  [| T.Precomp_hit; T.Precomp_resumed; T.Precomp_fallback T.F_no_entry;
     T.Precomp_fallback T.F_statics; T.Precomp_fallback T.F_tag; T.Vcache_hit;
     T.Slow_path; T.Deny "call_mac"; T.Deny "control_flow" |]

let sems_pool = [| "read"; "write"; "open"; "close" |]

(* one synthetic record: (site, sem index, reason index, cycles) *)
let ops_arb =
  QCheck.(
    list_of_size Gen.(int_range 0 60)
      (quad (int_range 0 5) (int_range 0 (Array.length sems_pool - 1))
         (int_range 0 (Array.length reasons_pool - 1))
         (int_range 1 500_000)))

(* each synthetic record's minor-words charge is derived deterministically
   from its cycles so the alloc plane gets the same variety as the cycle
   plane without widening the generator tuple *)
let alloc_of_cycles cycles = (cycles mod 977) + 1

let stats_of_ops t ~pid ops =
  let sh = T.shard t ~pid in
  List.iteri
    (fun i (site, sem, reason, cycles) ->
      T.record t sh ~site:(0x100 + site) ~sem:sems_pool.(sem)
        ~reason:reasons_pool.(reason) ~cycles ~alloc:(alloc_of_cycles cycles) ~now:(i + 1))
    ops;
  T.stats_of_shard t sh

let hist_count (_, h) = h.T.q_count
let hist_sum (_, h) = h.T.q_sum

let site_alloc_total s = List.fold_left (fun acc (_, w) -> acc + w) 0 s.T.t_site_alloc

(* the alloc plane must conserve under merge exactly like the call counts:
   total words, the histogram's count/sum, and the per-site word rollup *)
let alloc_conserved a b m =
  m.T.t_alloc_words = a.T.t_alloc_words + b.T.t_alloc_words
  && m.T.t_alloc.T.q_count = a.T.t_alloc.T.q_count + b.T.t_alloc.T.q_count
  && m.T.t_alloc.T.q_sum = a.T.t_alloc.T.q_sum + b.T.t_alloc.T.q_sum
  && site_alloc_total m = site_alloc_total a + site_alloc_total b
  && m.T.t_alloc.T.q_sum = m.T.t_alloc_words

let conserved a b m =
  m.T.t_calls = a.T.t_calls + b.T.t_calls
  && m.T.t_cycles = a.T.t_cycles + b.T.t_cycles
  && m.T.t_shards = a.T.t_shards + b.T.t_shards
  && T.reasons_total m = T.reasons_total a + T.reasons_total b
  && Array.for_all (fun x -> x)
       (Array.mapi (fun i x -> x = a.T.t_reasons.(i) + b.T.t_reasons.(i)) m.T.t_reasons)
  && List.fold_left ( + ) 0 (List.map hist_count m.T.t_per_sem)
     = List.fold_left ( + ) 0 (List.map hist_count a.T.t_per_sem)
       + List.fold_left ( + ) 0 (List.map hist_count b.T.t_per_sem)
  && List.fold_left ( + ) 0 (List.map hist_sum m.T.t_per_sem)
     = List.fold_left ( + ) 0 (List.map hist_sum a.T.t_per_sem)
       + List.fold_left ( + ) 0 (List.map hist_sum b.T.t_per_sem)
  && alloc_conserved a b m

let qcheck_merge_commutes =
  QCheck.Test.make ~name:"merge is order-insensitive and count-conserving" ~count:100
    QCheck.(pair ops_arb ops_arb)
    (fun (opsa, opsb) ->
      let t = T.create () in
      let sa = stats_of_ops t ~pid:1 opsa in
      let sb = stats_of_ops t ~pid:2 opsb in
      let ab = T.merge sa sb in
      ab = T.merge sb sa && conserved sa sb ab
      && T.merge T.empty_stats sa = sa && T.merge sa T.empty_stats = sa)

let qcheck_merge_associates =
  QCheck.Test.make ~name:"merge associates (any aggregation tree agrees)" ~count:100
    QCheck.(triple ops_arb ops_arb ops_arb)
    (fun (opsa, opsb, opsc) ->
      let t = T.create () in
      let sa = stats_of_ops t ~pid:1 opsa in
      let sb = stats_of_ops t ~pid:2 opsb in
      let sc = stats_of_ops t ~pid:3 opsc in
      T.merge (T.merge sa sb) sc = T.merge sa (T.merge sb sc))

let qcheck_aggregate_equals_fold =
  QCheck.Test.make ~name:"aggregate = fold of per-shard stats" ~count:50
    QCheck.(pair ops_arb ops_arb)
    (fun (opsa, opsb) ->
      let t = T.create () in
      let sa = stats_of_ops t ~pid:1 opsa in
      let sb = stats_of_ops t ~pid:2 opsb in
      (* retiring one shard must not change the aggregate *)
      let before = T.aggregate t in
      T.retire_pid t ~pid:1;
      let after = T.aggregate t in
      before = T.merge sa sb && after.T.t_calls = before.T.t_calls
      && T.reasons_total after = T.reasons_total before)

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

(* ---- snapshot emitter ---- *)

let test_emitter_rows () =
  let t = T.create () in
  T.set_emitter t ~interval:1000;
  let sh = T.shard t ~pid:1 in
  let record ~now =
    T.record t sh ~site:0x40 ~sem:"read" ~reason:T.Slow_path ~cycles:500 ~alloc:32 ~now
  in
  record ~now:400;   (* below the first boundary: no row *)
  record ~now:1200;  (* crosses 1000: row 1 *)
  record ~now:1300;  (* next boundary now 2200: no row *)
  record ~now:2500;  (* crosses 2200: row 2 *)
  let rows = T.snapshots t in
  Alcotest.(check int) "two rows cut" 2 (List.length rows);
  let ts_of row =
    match Asc_obs.Json.member "ts" row with
    | Some ts -> Option.get (Asc_obs.Json.to_int ts)
    | None -> Alcotest.fail "row missing ts"
  in
  Alcotest.(check (list int)) "stamped at the crossing calls" [ 1200; 2500 ]
    (List.map ts_of rows);
  (* cumulative counters are monotone; interval deltas cover all calls *)
  let calls_of row = Option.get (Asc_obs.Json.to_int (Option.get (Asc_obs.Json.member "calls" row))) in
  Alcotest.(check (list int)) "cumulative calls" [ 2; 4 ] (List.map calls_of rows);
  let jsonl = T.snapshots_jsonl t in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "jsonl row per snapshot" 2 (List.length lines);
  List.iter
    (fun line ->
      match Asc_obs.Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snapshot line unreadable: %s" e)
    lines

let () =
  Alcotest.run "telemetry"
    [ ( "end-to-end",
        [ Alcotest.test_case "reason exhaustiveness" `Quick test_exhaustiveness;
          Alcotest.test_case "deny recorded with step" `Quick test_deny_recorded;
          Alcotest.test_case "shard lifecycle" `Quick test_shard_lifecycle;
          Alcotest.test_case "bounded ledger" `Quick test_ledger_entries ] );
      ( "merge",
        [ QCheck_alcotest.to_alcotest qcheck_merge_commutes;
          QCheck_alcotest.to_alcotest qcheck_merge_associates;
          QCheck_alcotest.to_alcotest qcheck_aggregate_equals_fold ] );
      ( "taxonomy",
        [ Alcotest.test_case "labels exhaustive and distinct" `Quick test_reason_taxonomy ] );
      ( "emitter",
        [ Alcotest.test_case "interval rows" `Quick test_emitter_rows ] ) ]
