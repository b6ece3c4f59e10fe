(* Shared helpers for the command-line tools. *)

open Oskernel

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let personality_of_string = function
  | "linux" -> Ok Personality.linux
  | "openbsd" -> Ok Personality.openbsd
  | s -> Error (Printf.sprintf "unknown OS personality %S (expected linux or openbsd)" s)

(* Load an input program: a SEF binary, or MiniC source (.mc/.c), or a named
   built-in workload (workload:NAME). *)
let load_program ~personality path =
  if String.length path > 9 && String.sub path 0 9 = "workload:" then begin
    let name = String.sub path 9 (String.length path - 9) in
    match Workloads.Registry.by_name ~scale:1 name with
    | Some w -> Ok (Workloads.Registry.compile ~personality w, Some w)
    | None -> Error (Printf.sprintf "unknown workload %S" name)
  end
  else begin
    let contents = try Ok (read_file path) with Sys_error e -> Error e in
    match contents with
    | Error e -> Error e
    | Ok contents ->
      if Filename.check_suffix path ".mc" || Filename.check_suffix path ".c" then
        match Minic.Driver.compile ~personality contents with
        | Ok img -> Ok (img, None)
        | Error e -> Error e
      else
        (match Svm.Obj_file.parse contents with
         | Ok img -> Ok (img, None)
         | Error e -> Error (Printf.sprintf "not a SEF binary (%s)" e))
  end

let key_of_hex hex =
  match Asc_crypto.Hex.decode hex with
  | raw when String.length raw = 16 -> Ok (Asc_crypto.Cmac.of_raw raw)
  | _ -> Error "key must be 32 hex digits (128 bits)"
  | exception Invalid_argument e -> Error e

(* --no-fastpath: asc_run and asc_top arm the checker's deployed fast path
   (vcache, precomp and cfpre as one unit) unless told not to. *)
let no_fastpath_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "no-fastpath" ]
        ~doc:"Run the paper's reference checker: disarm the deployed fast path (the \
              verified-string cache, the precompiled call sites and the control-flow \
              bitsets). Verdicts are identical either way; only cycles move.")

(* The fast-path layers' counters, in the order both the --verbose-stats
   lines and the --stats-out objects print them. *)
let fastpath_counters (fp : Asc_core.Checker.fastpath) =
  let open Asc_core in
  [ ( "vcache",
      [ ("hits", Vcache.hits fp.vcache);
        ("misses", Vcache.misses fp.vcache);
        ("evictions", Vcache.evictions fp.vcache);
        ("invalidations", Vcache.invalidations fp.vcache);
        ("cycles_saved", Vcache.cycles_saved fp.vcache) ] );
    ( "precomp",
      [ ("hits", Precomp.hits fp.precomp);
        ("resumes", Precomp.resumes fp.precomp);
        ("fallbacks", Precomp.fallbacks fp.precomp);
        ("compiles", Precomp.compiles fp.precomp);
        ("invalidations", Precomp.invalidations fp.precomp);
        ("cycles_saved", Precomp.cycles_saved fp.precomp) ] );
    ( "cfpre",
      [ ("hits", Cfpre.hits fp.cfpre);
        ("misses", Cfpre.misses fp.cfpre);
        ("fallbacks", Cfpre.fallbacks fp.cfpre);
        ("compiles", Cfpre.compiles fp.cfpre);
        ("invalidations", Cfpre.invalidations fp.cfpre);
        ("cycles_saved", Cfpre.cycles_saved fp.cfpre) ] ) ]

(* --verbose-stats: one "[layer: N hits, N misses, ...]" line per layer
   on stderr *)
let print_fastpath_stats fp =
  List.iter
    (fun (layer, fields) ->
      Format.eprintf "[%s: %s]@." layer
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%d %s" v (String.map (fun c -> if c = '_' then ' ' else c) k))
              fields)))
    (fastpath_counters fp)

(* --stats-out: one JSON object per layer *)
let fastpath_json fp =
  List.map
    (fun (layer, fields) ->
      (layer, Asc_obs.Json.Obj (List.map (fun (k, v) -> (k, Asc_obs.Json.Int v)) fields)))
    (fastpath_counters fp)
