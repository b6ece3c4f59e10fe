(* The fleet telemetry plane (Asc_obs.Telemetry).

   End-to-end: an enforced run must record exactly one reason code and
   one control-flow code per monitored call (the exhaustiveness invariant
   — each set of buckets sums to the kernel's trap count), charge exactly
   telemetry_record_cost per call to the self-overhead meter, and retire
   shards losslessly at process teardown. The QCheck properties pin the
   merge algebra: commutative, associative, and count-conserving on every
   scalar, bucket and assoc leaf — the contract that makes read-side
   aggregation order-independent over concurrently written shards. *)

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
  Alcotest.(check int) "one retired shard folded" 1 agg.T.t_shards;
  (* a second run stopped half-way keeps its shard live: the self-overhead
     meter covers the retired shard and the live one, one charge per call *)
  let proc2 = Kernel.spawn kernel ~program:"loop" image in
  let half = proc.Process.machine.Svm.Machine.cycles / 2 in
  (match Kernel.run kernel proc2 ~max_cycles:half with
   | Svm.Machine.Cycle_limit -> ()
   | _ -> Alcotest.fail "second run was not stopped half-way");
  Alcotest.(check (list int)) "second shard live" [ proc2.Process.pid ] (T.live_pids tel);
  let live = T.stats_of_shard tel (T.shard tel ~pid:proc2.Process.pid) in
  Alcotest.(check bool) "live shard recorded calls" true (live.T.t_calls > 0);
  Alcotest.(check int) "self cycles = retired + live charges"
    ((agg.T.t_calls + live.T.t_calls) * Svm.Cost_model.telemetry_record_cost)
    (T.self_cycles tel);
  Alcotest.(check int) "self cycles = the shards' sum"
    (agg.T.t_self_cycles + live.T.t_self_cycles) (T.self_cycles tel)

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

(* Retiring folds a shard into the plane in place; the aggregate must not
   notice. 3-4 shards see records on a small shared pool of sites,
   syscalls and deny steps (so keys recur across shards) and are retired
   in random order, interleaved with records on the ones still live.
   After each retire the aggregate must equal, structurally, the merge of
   every retired shard's snapshot (taken just before its retire) with the
   live shards' stats: per-site counts and word rollups, per-syscall
   histograms, deny steps, the alloc histogram, self cycles and
   [t_shards] alike; and [self_cycles] must read the aggregate's. *)
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
  QCheck.Test.make ~name:"aggregate = fold of per-shard stats" ~count:100 events_arb
    (fun (n, order, evs) ->
      let t = T.create () in
      let pid i = i + 1 in
      let shards = Array.init n (fun i -> T.shard t ~pid:(pid i)) in
      let live = Array.make n true in
      let snapshots = ref [] in
      let to_retire = ref order in
      let expected () =
        let live_stats =
          List.filter_map
            (fun i -> if live.(i) then Some (T.stats_of_shard t shards.(i)) else None)
            (List.init n Fun.id)
        in
        List.fold_left T.merge T.empty_stats (!snapshots @ live_stats)
      in
      let now = ref 0 in
      List.for_all
        (fun ev ->
          match ev with
          | Record (i, (site, sem, reason, cycles)) ->
            if live.(i) then begin
              incr now;
              T.record t shards.(i) ~site:(0x100 + site) ~sem:sems_pool.(sem)
                ~reason:reasons_pool.(reason) ~cycles ~alloc:(alloc_of_cycles cycles)
                ~now:!now;
              T.note_self t shards.(i) (1 + (cycles mod 10))
            end;
            true
          | Retire ->
            let i = List.hd !to_retire in
            to_retire := List.tl !to_retire;
            snapshots := T.stats_of_shard t shards.(i) :: !snapshots;
            T.retire_pid t ~pid:(pid i);
            live.(i) <- false;
            let agg = T.aggregate t in
            agg = expected ()
            && T.self_cycles t = agg.T.t_self_cycles
            && T.live_pids t = List.filter (fun p -> live.(p - 1)) (List.init n pid))
        evs
      && T.aggregate t = expected ())

(* A retire costs what the exiting process touched, not the plane's
   history: with 200 sites and 20 syscalls already retired, retiring a
   one-site shard whose site sorts after all of them allocates at most 200
   minor words (a fold that rebuilds the retired aggregate with [merge]
   allocates 2,817). *)
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
  if words > 200 then Alcotest.failf "retiring a one-site shard allocated %d words" words;
  let agg = T.aggregate t in
  Alcotest.(check int) "every retired site kept" 201 (List.length agg.T.t_sites);
  Alcotest.(check int) "every retired syscall kept" 20 (List.length agg.T.t_per_sem);
  Alcotest.(check (pair int int)) "the last site and its words" (0x2000, 40)
    (List.nth agg.T.t_site_alloc 200);
  Alcotest.(check int) "retired shards counted" 201 agg.T.t_shards

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
      ( "merge",
        [ QCheck_alcotest.to_alcotest qcheck_merge_commutes;
          QCheck_alcotest.to_alcotest qcheck_merge_associates;
          QCheck_alcotest.to_alcotest qcheck_aggregate_equals_fold;
          Alcotest.test_case "retire allocates only the shard's keys" `Quick
            test_retire_allocation ] );
      ( "taxonomy",
        [ Alcotest.test_case "labels exhaustive and distinct" `Quick test_reason_taxonomy ] ) ]
