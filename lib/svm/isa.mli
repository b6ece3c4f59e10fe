(** The SVM instruction set.

    SVM is the RISC-like instruction set of the simulated machine that stands
    in for x86 in this reproduction. Every instruction encodes to exactly
    {!instr_size} bytes, which keeps disassembly trivial while preserving the
    properties the paper's installer relies on: system calls are a single
    [SYS] instruction (the [int 0x80] analogue) with the system call number
    placed in register [r0] beforehand, and absolute code addresses appear as
    32-bit immediates covered by relocation entries. *)

type reg = int
(** A register index in [0, 15]. *)

val num_regs : int

(** r13: stack pointer. [Push]/[Pop] use it implicitly. *)
val sp : reg

(** r12: frame pointer by convention (not enforced). *)
val fp : reg

type binop =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Xor | Shl | Shr
  | Slt  (** set if less-than (signed), result 1/0 *)
  | Sle  (** set if less-or-equal *)
  | Seq  (** set if equal *)
  | Sne  (** set if not equal *)

type cond = Eq | Ne | Lt | Ge | Le | Gt

type instr =
  | Halt
  | Nop
  | Movi of reg * int      (** rd <- signed 32-bit immediate *)
  | Mov of reg * reg
  | Ld of reg * reg * int  (** rd <- mem64\[rs + off\] *)
  | St of reg * int * reg  (** mem64\[rd + off\] <- rs *)
  | Ldb of reg * reg * int (** rd <- zero-extended mem8\[rs + off\] *)
  | Stb of reg * int * reg (** mem8\[rd + off\] <- low byte of rs *)
  | Binop of binop * reg * reg * reg  (** rd <- rs op rt *)
  | Addi of reg * reg * int
  | Br of cond * reg * reg * int  (** if rs cond rt then pc <- absolute target *)
  | Jmp of int             (** absolute *)
  | Jr of reg              (** computed jump: pc <- rs *)
  | Call of int            (** push return address, pc <- absolute target *)
  | Callr of reg           (** computed call *)
  | Ret
  | Push of reg
  | Pop of reg
  | Sys                    (** trap to kernel; number in r0, args in r1..r6 *)
  | Rdcyc of reg           (** rd <- cycle counter (the rdtsc analogue) *)

val instr_size : int
(** Size in bytes of every encoded instruction (8). *)

(** {2 Operations and fields}

    The interpreter dispatches on these without building an {!instr}, so a
    retired instruction allocates nothing; {!decode} is built on the same
    accessors, so the two cannot disagree about the encoding. Both read an
    instruction with {!unsafe_word_at} and take every field from the word
    it returns. *)

module Op : sig
  type t =
    | Halt | Nop | Movi | Mov | Ld | St | Ldb | Stb | Addi
    | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr | Slt | Sle | Seq | Sne
    | Beq | Bne | Blt | Bge | Ble | Bgt
    | Jmp | Jr | Call | Callr | Ret | Push | Pop | Sys | Rdcyc
    | Invalid
end
(** The operation an instruction performs, without its operands: one tag
    per opcode, binops and branches included. [Invalid] stands for every
    byte the opcode map leaves unassigned. *)

val unsafe_word_at : bytes -> pos:int -> int
(** The instruction at [pos], read with one unchecked 8-byte load and
    packed into an int for the [_of_word] accessors. The caller must have
    checked [0 <= pos <= Bytes.length b - instr_size]. *)

val head_of_word : int -> int
(** The instruction's head: its opcode, register and rt bytes. The
    [_of_head] functions take it apart. *)

val op_of_head : int -> Op.t
(** The operation. [Invalid] if the opcode byte is unassigned, or if the
    operation is a binop or branch whose rt byte names no register (such
    bytes do not {!decode} either). *)

val opcode_of_head : int -> int
(** The raw opcode byte, in \[0, 255\]. *)

val rd_of_head : int -> reg
val rs_of_head : int -> reg

val rt_of_head : int -> int
(** The raw rt byte, in \[0, 255\]; a register only where {!op_of_head}
    is a binop or branch. *)

val imm_of_word : int -> int
(** The immediate, sign-extended from 32 bits. *)

val target_of_word : int -> int
(** The immediate as an absolute code address: zero-extended from 32 bits,
    as branch, jump and call targets are. *)

val encode : instr -> bytes -> pos:int -> unit
(** Encode an instruction at [pos]. @raise Invalid_argument if an operand is
    out of range (register not in \[0,15\], immediate outside 32 bits). *)

val decode : bytes -> pos:int -> instr option
(** Decode the instruction at [pos]; [None] if [pos .. pos + instr_size - 1]
    is not inside [b] or {!op_of_head} is [Invalid] (the disassembler reports
    such bytes as undisassemblable, like PLTO). *)

val imm_is_code_target : instr -> bool
(** Whether the instruction's immediate field holds an absolute code address
    (Jmp/Call/Br targets) that relocation must adjust. *)

val pp : Format.formatter -> instr -> unit
(** Assembly-style printing, parseable back by {!Asm}. *)
