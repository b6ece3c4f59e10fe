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
             List.iter (fun p -> Format.printf "    %s@." p) problems)))

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
