type reg = int

let num_regs = 16
let sp = 13
let fp = 12

type binop =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Xor | Shl | Shr
  | Slt | Sle | Seq | Sne

type cond = Eq | Ne | Lt | Ge | Le | Gt

type instr =
  | Halt
  | Nop
  | Movi of reg * int
  | Mov of reg * reg
  | Ld of reg * reg * int
  | St of reg * int * reg
  | Ldb of reg * reg * int
  | Stb of reg * int * reg
  | Binop of binop * reg * reg * reg
  | Addi of reg * reg * int
  | Br of cond * reg * reg * int
  | Jmp of int
  | Jr of reg
  | Call of int
  | Callr of reg
  | Ret
  | Push of reg
  | Pop of reg
  | Sys
  | Rdcyc of reg

let instr_size = 8

module Op = struct
  type t =
    | Halt | Nop | Movi | Mov | Ld | St | Ldb | Stb | Addi
    | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr | Slt | Sle | Seq | Sne
    | Beq | Bne | Blt | Bge | Ble | Bgt
    | Jmp | Jr | Call | Callr | Ret | Push | Pop | Sys | Rdcyc
    | Invalid
end

(* The opcode map: the only place an opcode number is written. Binops
   occupy 0x10..0x1d, branches 0x20..0x25. *)
let opcode : Op.t -> int = function
  | Halt -> 0x00 | Nop -> 0x01 | Movi -> 0x02 | Mov -> 0x03 | Ld -> 0x04
  | St -> 0x05 | Ldb -> 0x06 | Stb -> 0x07 | Addi -> 0x08
  | Add -> 0x10 | Sub -> 0x11 | Mul -> 0x12 | Div -> 0x13 | Mod -> 0x14
  | And -> 0x15 | Or -> 0x16 | Xor -> 0x17 | Shl -> 0x18 | Shr -> 0x19
  | Slt -> 0x1a | Sle -> 0x1b | Seq -> 0x1c | Sne -> 0x1d
  | Beq -> 0x20 | Bne -> 0x21 | Blt -> 0x22 | Bge -> 0x23 | Ble -> 0x24 | Bgt -> 0x25
  | Jmp -> 0x30 | Jr -> 0x31 | Call -> 0x32 | Callr -> 0x33 | Ret -> 0x34
  | Push -> 0x35 | Pop -> 0x36 | Sys -> 0x37 | Rdcyc -> 0x38
  | Invalid -> invalid_arg "Isa.opcode: Invalid has no opcode"

let op_table =
  let t = Array.make 256 Op.Invalid in
  List.iter
    (fun op -> t.(opcode op) <- op)
    Op.
      [ Halt; Nop; Movi; Mov; Ld; St; Ldb; Stb; Addi;
        Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Slt; Sle; Seq; Sne;
        Beq; Bne; Blt; Bge; Ble; Bgt;
        Jmp; Jr; Call; Callr; Ret; Push; Pop; Sys; Rdcyc ];
  t

(* The rt byte names a register only for binops and branches. *)
let reads_rt : Op.t -> bool = function
  | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr | Slt | Sle | Seq | Sne
  | Beq | Bne | Blt | Bge | Ble | Bgt -> true
  | Halt | Nop | Movi | Mov | Ld | St | Ldb | Stb | Addi
  | Jmp | Jr | Call | Callr | Ret | Push | Pop | Sys | Rdcyc | Invalid -> false

let op_of_binop : binop -> Op.t = function
  | Add -> Add | Sub -> Sub | Mul -> Mul | Div -> Div | Mod -> Mod
  | And -> And | Or -> Or | Xor -> Xor | Shl -> Shl | Shr -> Shr
  | Slt -> Slt | Sle -> Sle | Seq -> Seq | Sne -> Sne

let op_of_cond : cond -> Op.t = function
  | Eq -> Beq | Ne -> Bne | Lt -> Blt | Ge -> Bge | Le -> Ble | Gt -> Bgt

let check_reg r = if r < 0 || r >= num_regs then invalid_arg "Isa.encode: bad register"

let check_imm v =
  if v < -0x8000_0000 || v > 0xffff_ffff then invalid_arg "Isa.encode: immediate out of range"

(* Layout: [opcode][ (rd<<4)|rs ][rt][0][imm32 LE]. Immediates are stored as
   their low 32 bits and decoded with sign extension, except that addresses
   in [0, 2^31) round-trip unchanged either way. *)
let put b ~pos ~op ~rd ~rs ~rt ~imm =
  check_reg rd; check_reg rs; check_reg rt; check_imm imm;
  Bytes.set b pos (Char.chr (opcode op));
  Bytes.set b (pos + 1) (Char.chr ((rd lsl 4) lor rs));
  Bytes.set b (pos + 2) (Char.chr rt);
  Bytes.set b (pos + 3) '\000';
  Bytes.set_int32_le b (pos + 4) (Int32.of_int imm)

let encode i b ~pos =
  match i with
  | Halt -> put b ~pos ~op:Halt ~rd:0 ~rs:0 ~rt:0 ~imm:0
  | Nop -> put b ~pos ~op:Nop ~rd:0 ~rs:0 ~rt:0 ~imm:0
  | Movi (rd, v) -> put b ~pos ~op:Movi ~rd ~rs:0 ~rt:0 ~imm:v
  | Mov (rd, rs) -> put b ~pos ~op:Mov ~rd ~rs ~rt:0 ~imm:0
  | Ld (rd, rs, off) -> put b ~pos ~op:Ld ~rd ~rs ~rt:0 ~imm:off
  | St (rd, off, rs) -> put b ~pos ~op:St ~rd ~rs ~rt:0 ~imm:off
  | Ldb (rd, rs, off) -> put b ~pos ~op:Ldb ~rd ~rs ~rt:0 ~imm:off
  | Stb (rd, off, rs) -> put b ~pos ~op:Stb ~rd ~rs ~rt:0 ~imm:off
  | Binop (op, rd, rs, rt) -> put b ~pos ~op:(op_of_binop op) ~rd ~rs ~rt ~imm:0
  | Addi (rd, rs, v) -> put b ~pos ~op:Addi ~rd ~rs ~rt:0 ~imm:v
  | Br (c, rs, rt, target) -> put b ~pos ~op:(op_of_cond c) ~rd:0 ~rs ~rt ~imm:target
  | Jmp target -> put b ~pos ~op:Jmp ~rd:0 ~rs:0 ~rt:0 ~imm:target
  | Jr rs -> put b ~pos ~op:Jr ~rd:0 ~rs ~rt:0 ~imm:0
  | Call target -> put b ~pos ~op:Call ~rd:0 ~rs:0 ~rt:0 ~imm:target
  | Callr rs -> put b ~pos ~op:Callr ~rd:0 ~rs ~rt:0 ~imm:0
  | Ret -> put b ~pos ~op:Ret ~rd:0 ~rs:0 ~rt:0 ~imm:0
  | Push rs -> put b ~pos ~op:Push ~rd:0 ~rs ~rt:0 ~imm:0
  | Pop rd -> put b ~pos ~op:Pop ~rd ~rs:0 ~rt:0 ~imm:0
  | Sys -> put b ~pos ~op:Sys ~rd:0 ~rs:0 ~rt:0 ~imm:0
  | Rdcyc rd -> put b ~pos ~op:Rdcyc ~rd ~rs:0 ~rt:0 ~imm:0

(* Field accessors: allocation-free, and shared by [decode] and the
   interpreter so the layout above is read in one place. An instruction is
   one little-endian 64-bit word, read with one load and packed into an
   int: the head (the first three bytes; the pad byte is dropped) in the
   low 24 bits and the sign-extended immediate above them. The packed word
   is an [int], not an [int64], so no accessor boxes it, inlined or not. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] unsafe_word_at b ~pos =
  let w = if Sys.big_endian then swap64 (get64u b pos) else get64u b pos in
  (Int64.to_int (Int64.shift_right w 32) lsl 24) lor (Int64.to_int w land 0xff_ffff)

let[@inline] head_of_word w = w land 0xff_ffff
let[@inline] imm_of_word w = w asr 24
let[@inline] target_of_word w = imm_of_word w land 0xffff_ffff
let[@inline] opcode_of_head h = h land 0xff
let[@inline] rd_of_head h = (h lsr 12) land 0xf
let[@inline] rs_of_head h = (h lsr 8) land 0xf
let[@inline] rt_of_head h = h lsr 16

let[@inline] op_of_head h =
  let op = Array.unsafe_get op_table (opcode_of_head h) in
  if rt_of_head h < num_regs || not (reads_rt op) then op else Op.Invalid

let decode b ~pos =
  if pos < 0 || pos > Bytes.length b - instr_size then None
  else begin
    let w = unsafe_word_at b ~pos in
    let h = head_of_word w in
    let rd = rd_of_head h and rs = rs_of_head h and rt = rt_of_head h in
    let imm = imm_of_word w and target = target_of_word w in
    match op_of_head h with
    | Halt -> Some Halt
    | Nop -> Some Nop
    | Movi -> Some (Movi (rd, imm))
    | Mov -> Some (Mov (rd, rs))
    | Ld -> Some (Ld (rd, rs, imm))
    | St -> Some (St (rd, imm, rs))
    | Ldb -> Some (Ldb (rd, rs, imm))
    | Stb -> Some (Stb (rd, imm, rs))
    | Addi -> Some (Addi (rd, rs, imm))
    | Add -> Some (Binop (Add, rd, rs, rt))
    | Sub -> Some (Binop (Sub, rd, rs, rt))
    | Mul -> Some (Binop (Mul, rd, rs, rt))
    | Div -> Some (Binop (Div, rd, rs, rt))
    | Mod -> Some (Binop (Mod, rd, rs, rt))
    | And -> Some (Binop (And, rd, rs, rt))
    | Or -> Some (Binop (Or, rd, rs, rt))
    | Xor -> Some (Binop (Xor, rd, rs, rt))
    | Shl -> Some (Binop (Shl, rd, rs, rt))
    | Shr -> Some (Binop (Shr, rd, rs, rt))
    | Slt -> Some (Binop (Slt, rd, rs, rt))
    | Sle -> Some (Binop (Sle, rd, rs, rt))
    | Seq -> Some (Binop (Seq, rd, rs, rt))
    | Sne -> Some (Binop (Sne, rd, rs, rt))
    | Beq -> Some (Br (Eq, rs, rt, target))
    | Bne -> Some (Br (Ne, rs, rt, target))
    | Blt -> Some (Br (Lt, rs, rt, target))
    | Bge -> Some (Br (Ge, rs, rt, target))
    | Ble -> Some (Br (Le, rs, rt, target))
    | Bgt -> Some (Br (Gt, rs, rt, target))
    | Jmp -> Some (Jmp target)
    | Jr -> Some (Jr rs)
    | Call -> Some (Call target)
    | Callr -> Some (Callr rs)
    | Ret -> Some Ret
    | Push -> Some (Push rs)
    | Pop -> Some (Pop rd)
    | Sys -> Some Sys
    | Rdcyc -> Some (Rdcyc rd)
    | Invalid -> None
  end

let imm_is_code_target = function
  | Br _ | Jmp _ | Call _ -> true
  | Halt | Nop | Movi _ | Mov _ | Ld _ | St _ | Ldb _ | Stb _ | Binop _ | Addi _
  | Jr _ | Callr _ | Ret | Push _ | Pop _ | Sys | Rdcyc _ -> false

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Slt -> "slt" | Sle -> "sle" | Seq -> "seq" | Sne -> "sne"

let cond_name = function
  | Eq -> "beq" | Ne -> "bne" | Lt -> "blt" | Ge -> "bge" | Le -> "ble" | Gt -> "bgt"

let pp ppf i =
  let r n = Format.sprintf "r%d" n in
  match i with
  | Halt -> Format.fprintf ppf "halt"
  | Nop -> Format.fprintf ppf "nop"
  | Movi (rd, v) -> Format.fprintf ppf "movi %s, %d" (r rd) v
  | Mov (rd, rs) -> Format.fprintf ppf "mov %s, %s" (r rd) (r rs)
  | Ld (rd, rs, off) -> Format.fprintf ppf "ld %s, [%s%+d]" (r rd) (r rs) off
  | St (rd, off, rs) -> Format.fprintf ppf "st [%s%+d], %s" (r rd) off (r rs)
  | Ldb (rd, rs, off) -> Format.fprintf ppf "ldb %s, [%s%+d]" (r rd) (r rs) off
  | Stb (rd, off, rs) -> Format.fprintf ppf "stb [%s%+d], %s" (r rd) off (r rs)
  | Binop (op, rd, rs, rt) ->
    Format.fprintf ppf "%s %s, %s, %s" (binop_name op) (r rd) (r rs) (r rt)
  | Addi (rd, rs, v) -> Format.fprintf ppf "addi %s, %s, %d" (r rd) (r rs) v
  | Br (c, rs, rt, t) -> Format.fprintf ppf "%s %s, %s, 0x%x" (cond_name c) (r rs) (r rt) t
  | Jmp t -> Format.fprintf ppf "jmp 0x%x" t
  | Jr rs -> Format.fprintf ppf "jr %s" (r rs)
  | Call t -> Format.fprintf ppf "call 0x%x" t
  | Callr rs -> Format.fprintf ppf "callr %s" (r rs)
  | Ret -> Format.fprintf ppf "ret"
  | Push rs -> Format.fprintf ppf "push %s" (r rs)
  | Pop rd -> Format.fprintf ppf "pop %s" (r rd)
  | Sys -> Format.fprintf ppf "sys"
  | Rdcyc rd -> Format.fprintf ppf "rdcyc %s" (r rd)
