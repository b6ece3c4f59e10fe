(* Benchmark harness: regenerates every table of the paper's evaluation and
   the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything (default scale)
     dune exec bench/main.exe table4          -- one table
     dune exec bench/main.exe -- --scale 4    -- heavier macrobenchmarks
     dune exec bench/main.exe bechamel        -- wall-clock Bechamel runs of
                                                 each table generator

   The simulated-cycle numbers are deterministic (the machine's cycle model
   replaces rdtsc); Bechamel measures the harness's real wall-clock cost. *)

let usage =
  "usage: main.exe [table1|table2|table3|table4|table5|table6|andrew|attacks|parity|telemetry|ablation|bechamel|all]* \
   [--scale N] [--iterations N] [--json] [--check-baselines DIR] [--tolerance PCT] \
   [--tolerance-abs W] [--history DIR] [--history-keep N] [--inject-step-cost STEP PCT]\n\
   \       main.exe diff A.json B.json [--tolerance PCT] [--tolerance-abs W]\n\
   \       (diff exits 0 on match, 1 on mismatch, 2 on unreadable input)"

let bechamel_run () =
  let open Bechamel in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"tables"
      [ test "table1" Tables.table1;
        test "table2" Tables.table2;
        test "table3" Tables.table3;
        test "table5(scale=1)" (Tables.table5 ~scale:1);
        test "table6(scale=1)" (Tables.table6 ~scale:1);
        test "andrew(1 iter)" (Tables.andrew ~iterations:1);
        test "attacks" Tables.attacks ]
  in
  (* silence the table printers while Bechamel drives them repeatedly *)
  let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let saved = Format.std_formatter in
  ignore saved;
  let stdout_backup = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:3 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  Unix.dup2 stdout_backup Unix.stdout;
  Unix.close devnull;
  Unix.close stdout_backup;
  ignore null;
  let results =
    List.map
      (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw)
      instances
  in
  Format.printf "@.Bechamel wall-clock cost of each table generator:@.";
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "  %-24s %12.0f ns/run@." name est
          | _ -> Format.printf "  %-24s (no estimate)@." name)
        tbl)
    results

let () =
  let scale = ref 1 in
  let iterations = ref 1 in
  let selected = ref [] in
  let diff_job = ref None in
  let rec parse = function
    | [] -> ()
    | "diff" :: a :: b :: rest ->
      diff_job := Some (a, b);
      parse rest
    | "--scale" :: v :: rest ->
      scale := int_of_string v;
      parse rest
    | "--iterations" :: v :: rest ->
      iterations := int_of_string v;
      parse rest
    | "--json" :: rest ->
      Export.echo := true;
      parse rest
    | "--check-baselines" :: dir :: rest ->
      Export.baseline_dir := Some dir;
      parse rest
    | "--tolerance" :: v :: rest ->
      Export.tolerance := float_of_string v;
      parse rest
    | "--tolerance-abs" :: v :: rest ->
      Export.tolerance_abs := float_of_string v;
      parse rest
    | "--history" :: dir :: rest ->
      Export.history_dir := Some dir;
      parse rest
    | "--history-keep" :: v :: rest ->
      Export.history_keep := Some (int_of_string v);
      parse rest
    | "--inject-step-cost" :: step :: pct :: rest ->
      (* deliberate regression: inflate one checker step's cycle charges
         in the table4 monitors; exists so CI can prove the gate-failure
         attribution names the step and site (see bench/dune's injection
         smoke) *)
      Microbench.inject :=
        Some (Asc_core.Checker.cost_injection ~step ~pct:(int_of_string pct));
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | name :: rest ->
      selected := name :: !selected;
      parse rest
  in
  Export.attribution_hook := Some Microbench.attribute_gate;
  parse (List.tl (Array.to_list Sys.argv));
  (match !diff_job with
   | Some (a, b) ->
     exit
       (Export.diff_files ~tolerance:!Export.tolerance ~tolerance_abs:!Export.tolerance_abs a b)
   | None -> ());
  let selected = if !selected = [] then [ "all" ] else List.rev !selected in
  let run name =
    match name with
    | "table1" -> Tables.table1 ()
    | "table2" -> Tables.table2 ()
    | "table3" -> Tables.table3 ()
    | "table4" -> Microbench.table4 ()
    | "table5" -> Tables.table5 ~scale:!scale ()
    | "table6" -> Tables.table6 ~scale:!scale ()
    | "andrew" -> Tables.andrew ~iterations:!iterations ()
    | "attacks" -> Tables.attacks ()
    | "parity" -> Tables.fastpath_parity ()
    | "telemetry" -> Tables.telemetry_gate ()
    | "ablation" ->
      Microbench.ablation_control_flow ();
      Microbench.control_flow_step ();
      Microbench.ablation_userspace ();
      Tables.ablation_patterns ()
    | "bechamel" -> bechamel_run ()
    | "all" ->
      Tables.table1 ();
      Tables.table2 ();
      Tables.table3 ();
      Microbench.table4 ();
      Tables.table5 ~scale:!scale ();
      Tables.table6 ~scale:!scale ();
      Tables.andrew ~iterations:!iterations ();
      Tables.attacks ();
      Tables.fastpath_parity ();
      Tables.telemetry_gate ();
      Microbench.ablation_control_flow ();
      Microbench.control_flow_step ();
      Microbench.ablation_userspace ();
      Tables.ablation_patterns ()
    | other ->
      Format.eprintf "unknown benchmark %S@.%s@." other usage;
      exit 1
  in
  List.iter run selected;
  if !Export.failures > 0 then begin
    Format.eprintf "%d benchmark document(s) regressed beyond baseline tolerance@."
      !Export.failures;
    exit 1
  end
