(* Machine-readable benchmark export: each table generator hands its rows
   here and a BENCH_<name>.json file appears in the working directory next
   to the printed table. Every document is validated by re-parsing before
   it is written, so a malformed emitter fails the run instead of shipping
   an unreadable file. *)

let echo = ref false (* --json: also print each document to stdout *)

(* --check-baselines DIR: after writing each document, diff it against the
   committed snapshot DIR/BENCH_<name>.json. The schema must match exactly;
   numeric leaves may drift within --tolerance percent. *)
let baseline_dir : string option ref = ref None
let tolerance = ref 10.0

(* --tolerance-abs W: global absolute floor in addition to the percentage
   gate — a numeric leaf also passes when |actual - baseline| <= W. Keeps
   near-zero fields (e.g. per-step alloc words that should stay ~0) from
   failing on noise that is huge in percent but tiny in absolute terms. *)
let tolerance_abs = ref 0.0
let failures = ref 0

(* Attribution hook: a gate failure calls this with both documents so the
   table generator that owns the document can re-run the regressed case
   under the profiler and name the checker step / call site that moved
   (main.ml points it at Microbench.attribute_gate). *)
let attribution_hook :
    (file:string -> baseline:Asc_obs.Json.t -> actual:Asc_obs.Json.t -> unit) option ref =
  ref None

(* Every gate failure re-runs attribution automatically: rank the numeric
   leaves that moved (not just the ones beyond tolerance — a regression
   usually moves totals and steps together, and the steps explain the
   totals), then let the owning generator name the site. *)
let print_attribution ~file ~baseline ~actual =
  let deltas = Asc_obs.Diffprof.diff_doc ~base:baseline ~actual in
  if deltas <> [] then begin
    Format.printf "  [attribution %s: numeric leaves ranked by |delta|]@." file;
    print_string (Asc_obs.Diffprof.render_doc_blame deltas)
  end;
  match !attribution_hook with
  | Some hook -> hook ~file ~baseline ~actual
  | None -> ()

let check_baseline ~file json =
  match !baseline_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir file in
    (match
       (try
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Ok s
        with Sys_error e -> Error e)
     with
     | Error e ->
       incr failures;
       Format.printf "  [BASELINE FAIL %s: %s]@." file e
     | Ok s ->
       (match Asc_obs.Json.parse s with
        | Error e ->
          incr failures;
          Format.printf "  [BASELINE FAIL %s: snapshot unreadable: %s]@." file e
        | Ok base ->
          (match
             Asc_obs.Baseline.compare ~tolerance:!tolerance ~tolerance_abs:!tolerance_abs
               ~baseline:base ~actual:json ()
           with
           | Ok () -> Format.printf "  [baseline ok: %s within %g%%]@." file !tolerance
           | Error problems ->
             incr failures;
             Format.printf "  [BASELINE FAIL %s: %d mismatches vs %s]@." file
               (List.length problems) path;
             List.iter (fun p -> Format.printf "    %s@." p) problems;
             print_attribution ~file ~baseline:base ~actual:json)))

let write ~name json =
  let s = Asc_obs.Json.to_string json in
  (match Asc_obs.Json.parse s with
   | Ok _ -> ()
   | Error e -> failwith (Printf.sprintf "BENCH_%s.json does not round-trip: %s" name e));
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  if !echo then print_endline s;
  Format.printf "  [wrote %s]@." file;
  check_baseline ~file json

(* `main.exe diff A B`: field-by-field comparison of two exported
   benchmark documents under the same rules as the baseline gate — exact
   schema, numeric leaves within --tolerance percent. Exit status 1 on a
   mismatch (so it can gate in scripts) and 2 when an input is missing or
   unparseable, so callers can tell "regressed" from "broken". *)
let diff_files ~tolerance ~tolerance_abs a b =
  let load path =
    match
      (try
         let ic = open_in_bin path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         Ok s
       with Sys_error e -> Error e)
    with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok s ->
      (match Asc_obs.Json.parse s with
       | Ok j -> Ok j
       | Error e -> Error (path ^ ": " ^ e))
  in
  match (load a, load b) with
  | Error e, _ | _, Error e ->
    Format.eprintf "diff: %s@." e;
    2
  | Ok base, Ok actual ->
    (match Asc_obs.Baseline.compare ~tolerance ~tolerance_abs ~baseline:base ~actual () with
     | Ok () ->
       Format.printf "diff: %s and %s match within %g%%@." a b tolerance;
       0
     | Error problems ->
       Format.printf "diff: %d mismatches between %s and %s (tolerance %g%%):@."
         (List.length problems) a b tolerance;
       List.iter (fun p -> Format.printf "  %s@." p) problems;
       let deltas = Asc_obs.Diffprof.diff_doc ~base ~actual in
       if deltas <> [] then begin
         Format.printf "  [attribution: numeric leaves ranked by |delta|]@.";
         print_string (Asc_obs.Diffprof.render_doc_blame deltas)
       end;
       1)
