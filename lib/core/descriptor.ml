type t = int

let marker_bit = 1 lsl 31
let cf_bit = 1 lsl 30
let site_bit = 1 lsl 29
let ext_bit = 1 lsl 28

let empty = marker_bit lor site_bit
let with_control_flow d = d lor cf_bit

let check_idx i = if i < 0 || i > 5 then invalid_arg "Descriptor: argument index out of range"

let with_const_arg d i =
  check_idx i;
  d lor (1 lsl i)

let with_string_arg d i =
  check_idx i;
  d lor (1 lsl (8 + i))

let with_ext d = d lor ext_bit

let is_authenticated d = d land marker_bit <> 0
let has_control_flow d = d land cf_bit <> 0
let has_ext d = d land ext_bit <> 0

let bits_set d shift = List.filter (fun i -> d land (1 lsl (shift + i)) <> 0) [ 0; 1; 2; 3; 4; 5 ]
let const_args d = bits_set d 0
let string_args d = bits_set d 8
let rec popcount n = if n = 0 then 0 else (n land 1) + popcount (n lsr 1)
let num_const_args d = popcount (d land 0x3f)
let num_string_args d = popcount ((d lsr 8) land 0x3f)

let pp ppf d =
  Format.fprintf ppf "0x%08x{%s%sconst=%s strings=%s}" (d land 0xffff_ffff)
    (if is_authenticated d then "auth " else "")
    (if has_control_flow d then "cf " else "")
    (String.concat "," (List.map string_of_int (const_args d)))
    (String.concat "," (List.map string_of_int (string_args d)))
