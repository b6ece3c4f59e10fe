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

let to_string v =
  Printf.sprintf "%s at site 0x%x number %d%s: %s" (step_name v.v_step) v.v_site v.v_number
    (match v.v_sem with Some s -> " (" ^ s ^ ")" | None -> "")
    v.v_reason

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* ----- JSON ----- *)

open Asc_obs.Json

let opt_str = function Some s -> Str s | None -> Null

let json_fields v =
  [ ("step", Str (step_name v.v_step));
    ("site", Int v.v_site);
    ("number", Int v.v_number);
    ("sem", opt_str v.v_sem);
    ("reason", Str v.v_reason);
    ("expected_mac", opt_str v.v_expected_mac);
    ("got_mac", opt_str v.v_got_mac) ]
