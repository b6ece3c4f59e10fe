type as_ref = {
  as_addr : int;
  as_len : int;
  as_mac : string;
}

type t = {
  e_number : int;
  e_site : int;
  e_descriptor : Descriptor.t;
  e_block : int;
  e_const_args : (int * int) list;
  e_string_args : (int * as_ref) list;
  e_ext : as_ref option;
  e_control : (as_ref * int) option;
}

let u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let u64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_as_ref buf r =
  if String.length r.as_mac <> 16 then invalid_arg "Encoded: string MAC must be 16 bytes";
  u32 buf r.as_addr;
  u32 buf r.as_len;
  Buffer.add_string buf r.as_mac

let encode e =
  let buf = Buffer.create 96 in
  u32 buf e.e_number;
  u32 buf e.e_site;
  u32 buf e.e_descriptor;
  u64 buf e.e_block;
  let const_idx = List.map fst e.e_const_args in
  if List.sort compare const_idx <> Descriptor.const_args e.e_descriptor then
    invalid_arg "Encoded: constant args disagree with descriptor";
  List.iter
    (fun (i, v) ->
      Buffer.add_char buf (Char.chr i);
      u64 buf v)
    (List.sort compare e.e_const_args);
  let str_idx = List.map fst e.e_string_args in
  if List.sort compare str_idx <> Descriptor.string_args e.e_descriptor then
    invalid_arg "Encoded: string args disagree with descriptor";
  List.iter
    (fun (i, r) ->
      Buffer.add_char buf (Char.chr i);
      add_as_ref buf r)
    (List.sort (fun (a, _) (b, _) -> compare a b) e.e_string_args);
  (match (Descriptor.has_ext e.e_descriptor, e.e_ext) with
   | true, Some r -> add_as_ref buf r
   | false, None -> ()
   | true, None | false, Some _ -> invalid_arg "Encoded: ext disagrees with descriptor");
  (match (Descriptor.has_control_flow e.e_descriptor, e.e_control) with
   | true, Some (r, lbptr) ->
     add_as_ref buf r;
     u32 buf lbptr
   | false, None -> ()
   | true, None | false, Some _ -> invalid_arg "Encoded: control flow disagrees with descriptor");
  Buffer.contents buf

let static_prefix_len = 16

type dyn_field =
  | D_const of { d_off : int; d_arg : int }
  | D_string of { d_off : int; d_arg : int }
  | D_ext of { d_off : int }
  | D_control of { d_off : int }

(* Walk [encode]'s layout without serializing: the fixed header is 20 bytes
   (u32 number/site/descriptor + u64 block), then 1+8 bytes per constant
   argument, 1+24 per string argument, 24 for the extension reference and
   24+4 for the control-flow reference. For const/string fields the offset
   points past the u8 index byte at the dynamic payload itself — the index
   bytes, like the field order, are functions of the descriptor alone. *)
let dyn_fields descriptor =
  let off = ref 20 in
  let fields = ref [] in
  List.iter
    (fun i ->
      fields := D_const { d_off = !off + 1; d_arg = i } :: !fields;
      off := !off + 9)
    (Descriptor.const_args descriptor);
  List.iter
    (fun i ->
      fields := D_string { d_off = !off + 1; d_arg = i } :: !fields;
      off := !off + 25)
    (Descriptor.string_args descriptor);
  if Descriptor.has_ext descriptor then begin
    fields := D_ext { d_off = !off } :: !fields;
    off := !off + 24
  end;
  if Descriptor.has_control_flow descriptor then begin
    fields := D_control { d_off = !off } :: !fields;
    off := !off + 28
  end;
  List.rev !fields

let encoded_length descriptor =
  20
  + (9 * Descriptor.num_const_args descriptor)
  + (25 * Descriptor.num_string_args descriptor)
  + (if Descriptor.has_ext descriptor then 24 else 0)
  + if Descriptor.has_control_flow descriptor then 28 else 0

let set_u32 b ~pos v =
  for i = 0 to 3 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let set_u64 b ~pos v =
  for i = 0 to 7 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let set_as_ref b ~pos r =
  if String.length r.as_mac <> 16 then invalid_arg "Encoded: string MAC must be 16 bytes";
  set_u32 b ~pos r.as_addr;
  set_u32 b ~pos:(pos + 4) r.as_len;
  Bytes.blit_string r.as_mac 0 b (pos + 8) 16

let predset_contents preds =
  let preds = List.sort_uniq compare preds in
  let buf = Buffer.create (8 * List.length preds) in
  List.iter (u64 buf) preds;
  Buffer.contents buf

let predset_mem contents bid =
  let n = String.length contents / 8 in
  let rec go i =
    if i >= n then false
    else begin
      let v = ref 0 in
      for k = 7 downto 0 do
        v := (!v lsl 8) lor Char.code contents.[(8 * i) + k]
      done;
      !v = bid || go (i + 1)
    end
  in
  go 0

let state_bytes ~counter ~last_block =
  let buf = Buffer.create 16 in
  u64 buf counter;
  u64 buf last_block;
  Buffer.contents buf
