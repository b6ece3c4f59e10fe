type step =
  | Call_mac
  | String_mac
  | Control_flow
  | Unauthenticated
  | Pattern
  | Normalization
  | Ext

let all_steps =
  [ Call_mac; String_mac; Control_flow; Unauthenticated; Pattern; Normalization; Ext ]

let step_name = function
  | Call_mac -> "call_mac"
  | String_mac -> "string_mac"
  | Control_flow -> "control_flow"
  | Unauthenticated -> "unauthenticated"
  | Pattern -> "pattern"
  | Normalization -> "normalization"
  | Ext -> "ext"

let step_of_name s = List.find_opt (fun st -> step_name st = s) all_steps

let attack_class = function
  | Unauthenticated -> "shellcode"
  | Call_mac | Control_flow -> "mimicry"
  | String_mac | Pattern | Ext -> "non-control-data"
  | Normalization -> "symlink-race"

type t = {
  v_step : step;
  v_site : int;
  v_number : int;
  v_sem : string option;
  v_reason : string;
  v_expected_mac : string option;
  v_got_mac : string option;
}

type call = {
  c_name : string;
  c_number : int;
  c_site : int;
  c_result : int;
}

type snapshot = {
  sn_regs : int array;
  sn_pc : int;
  sn_cycles : int;
  sn_instrs : int;
  sn_counter : int;
  sn_last_block : int option;
  sn_lb_mac : string option;
  sn_recent : call list;
}

let snapshot_regs = 12

let to_string v =
  Printf.sprintf "%s at site 0x%x number %d%s: %s" (step_name v.v_step) v.v_site v.v_number
    (match v.v_sem with Some s -> " (" ^ s ^ ")" | None -> "")
    v.v_reason

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* ----- JSON ----- *)

open Asc_obs.Json

let opt_str = function Some s -> Str s | None -> Null
let opt_int = function Some i -> Int i | None -> Null

let to_json v =
  Obj
    [ ("step", Str (step_name v.v_step));
      ("site", Int v.v_site);
      ("number", Int v.v_number);
      ("sem", opt_str v.v_sem);
      ("reason", Str v.v_reason);
      ("expected_mac", opt_str v.v_expected_mac);
      ("got_mac", opt_str v.v_got_mac) ]

(* total accessors: a [required]-style combinator would hide which field was
   missing, and the error messages matter to the asc_audit verifier *)
let get_int j k =
  match Option.bind (member k j) to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "violation: missing int field %S" k)

let get_str j k =
  match Option.bind (member k j) to_str with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "violation: missing string field %S" k)

let get_opt_str j k =
  match member k j with Some (Str s) -> Some s | _ -> None

let get_opt_int j k =
  match member k j with Some (Int i) -> Some i | _ -> None

let of_json j =
  let ( let* ) = Result.bind in
  let* step_s = get_str j "step" in
  let* step =
    match step_of_name step_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "violation: unknown step %S" step_s)
  in
  let* site = get_int j "site" in
  let* number = get_int j "number" in
  let* reason = get_str j "reason" in
  Ok
    { v_step = step;
      v_site = site;
      v_number = number;
      v_sem = get_opt_str j "sem";
      v_reason = reason;
      v_expected_mac = get_opt_str j "expected_mac";
      v_got_mac = get_opt_str j "got_mac" }

let call_to_json c =
  Obj
    [ ("name", Str c.c_name);
      ("number", Int c.c_number);
      ("site", Int c.c_site);
      ("result", Int c.c_result) ]

let call_of_json j =
  let ( let* ) = Result.bind in
  let* name = get_str j "name" in
  let* number = get_int j "number" in
  let* site = get_int j "site" in
  let* result = get_int j "result" in
  Ok { c_name = name; c_number = number; c_site = site; c_result = result }

let snapshot_to_json s =
  Obj
    [ ("regs", List (Array.to_list (Array.map (fun r -> Int r) s.sn_regs)));
      ("pc", Int s.sn_pc);
      ("cycles", Int s.sn_cycles);
      ("instrs", Int s.sn_instrs);
      ("counter", Int s.sn_counter);
      ("last_block", opt_int s.sn_last_block);
      ("lb_mac", opt_str s.sn_lb_mac);
      ("recent", List (List.map call_to_json s.sn_recent)) ]

let snapshot_of_json j =
  let ( let* ) = Result.bind in
  let* regs =
    match Option.bind (member "regs" j) to_list with
    | Some l ->
      let rec ints acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Int i :: rest -> ints (i :: acc) rest
        | _ -> Error "snapshot: non-integer register"
      in
      ints [] l
    | None -> Error "snapshot: missing regs"
  in
  let* pc = get_int j "pc" in
  let* cycles = get_int j "cycles" in
  let* instrs = get_int j "instrs" in
  let* counter = get_int j "counter" in
  let* recent =
    match Option.bind (member "recent" j) to_list with
    | Some l ->
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let* c = call_of_json c in
          Ok (c :: acc))
        (Ok []) l
      |> Result.map List.rev
    | None -> Error "snapshot: missing recent"
  in
  Ok
    { sn_regs = regs;
      sn_pc = pc;
      sn_cycles = cycles;
      sn_instrs = instrs;
      sn_counter = counter;
      sn_last_block = get_opt_int j "last_block";
      sn_lb_mac = get_opt_str j "lb_mac";
      sn_recent = recent }
