type fault =
  | Bad_opcode of int
  | Bad_address of int
  | Div_by_zero

type stop =
  | Halted of int
  | Faulted of fault * int
  | Killed of string
  | Cycle_limit

type t = {
  mutable mem : Bytes.t;
  mutable dirty : Bytes.t;
  regs : int array;
  mutable pc : int;
  mutable cycles : int;
  mutable instrs : int;
  mutable stopped : stop option;
  mutable max_cycles : int;
}

type sys_action =
  | Sys_continue
  | Sys_kill of string

let default_mem_size = 4 * 1024 * 1024
let page_bits = 12
let page_size = 1 lsl page_bits

let of_mem mem dirty =
  { mem;
    dirty;
    regs = Array.make Isa.num_regs 0;
    pc = 0;
    cycles = 0;
    instrs = 0;
    stopped = None;
    max_cycles = 0 }

let create ~mem_size =
  of_mem (Bytes.make mem_size '\000') (Bytes.make ((mem_size + page_size - 1) / page_size) '\000')

let take_over old =
  let t = of_mem old.mem old.dirty in
  old.mem <- Bytes.empty;
  old.dirty <- Bytes.empty;
  t

let stack_top t = Bytes.length t.mem - 16

(* [addr <= length - len], not [addr + len <= length]: the sum overflows
   for a guest address near [max_int] and would pass. *)
let[@inline] fits mem addr len = addr >= 0 && len >= 0 && addr <= Bytes.length mem - len
let[@inline] in_range t addr len = fits t.mem addr len

(* Every write marks the page it starts in, after its bounds check, so
   [a lsr page_bits] indexes the map. A word that starts in a page's last
   7 bytes reaches into the next page unmarked: [zero_written] clears 7
   bytes past each page instead, so a store stays one byte store. *)
let[@inline] mark t a = Bytes.unsafe_set t.dirty (a lsr page_bits) '\001'

let mark_range t addr len =
  if len > 0 then
    for p = addr lsr page_bits to (addr + len - 1) lsr page_bits do
      Bytes.unsafe_set t.dirty p '\001'
    done

let zero_written t =
  let size = Bytes.length t.mem in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      let lo = p lsl page_bits in
      Bytes.fill t.mem lo (min size (lo + page_size + 7) - lo) '\000';
      Bytes.unsafe_set t.dirty p '\000'
    end
  done

let read_word t addr =
  if in_range t addr 8 then Some (Int64.to_int (Bytes.get_int64_le t.mem addr)) else None

let write_word t addr v =
  if in_range t addr 8 then begin
    Bytes.set_int64_le t.mem addr (Int64.of_int v);
    mark t addr;
    true
  end
  else false

let read_byte t addr =
  if in_range t addr 1 then Some (Char.code (Bytes.get t.mem addr)) else None

let write_byte t addr v =
  if in_range t addr 1 then begin
    Bytes.set t.mem addr (Char.chr (v land 0xff));
    mark t addr;
    true
  end
  else false

let read_mem t ~addr ~len =
  if in_range t addr len then Some (Bytes.sub_string t.mem addr len) else None

let write_mem t ~addr s =
  if in_range t addr (String.length s) then begin
    Bytes.blit_string s 0 t.mem addr (String.length s);
    mark_range t addr (String.length s);
    true
  end
  else false

let read_into t ~addr ~buf ~pos ~len =
  if in_range t addr len && pos >= 0 && pos <= Bytes.length buf - len then begin
    Bytes.blit t.mem addr buf pos len;
    true
  end
  else false

let write_from t ~addr ~buf ~pos ~len =
  if in_range t addr len && pos >= 0 && pos <= Bytes.length buf - len then begin
    Bytes.blit buf pos t.mem addr len;
    mark_range t addr len;
    true
  end
  else false

(* a while loop rather than an inner recursive function: this runs on the
   checker's per-trap fast path, where even one closure allocation counts
   against the step's host-allocation budget *)
let mem_equal t ~addr s =
  let len = String.length s in
  in_range t addr len
  && begin
    let i = ref 0 in
    while !i < len && Bytes.get t.mem (addr + !i) = s.[!i] do
      incr i
    done;
    !i = len
  end

(* Allocation-free word accessors: [Int64.to_int]/[Int64.of_int] around
   the stdlib's LE word primitives are unboxed by the native compiler, and
   nothing else is built. *)
let word_ok t addr = in_range t addr 8

let word_at t addr =
  if not (word_ok t addr) then invalid_arg "Machine.word_at: out of range";
  Int64.to_int (Bytes.get_int64_le t.mem addr)

let set_word t addr v =
  if not (word_ok t addr) then invalid_arg "Machine.set_word: out of range";
  Bytes.set_int64_le t.mem addr (Int64.of_int v);
  mark t addr

(* a while loop for the same reason as [mem_equal]: every path argument
   of a trap comes through here, so only the result allocates. The scan
   stays in [addr, limit), inside [mem]. *)
let read_cstring t ~addr ~max =
  let mem = t.mem in
  let size = Bytes.length mem in
  if addr < 0 || addr >= size then None
  else begin
    let limit = if max < size - addr then addr + max else size in
    let e = ref addr in
    while !e < limit && Bytes.unsafe_get mem !e <> '\000' do
      incr e
    done;
    if !e < limit then Some (Bytes.sub_string mem addr (!e - addr)) else None
  end

(* The modeled cost of each opcode byte: [Cost_model.instr_cost] of the
   instruction the byte decodes to. The model prices an operation, never
   its operands, so one decode per byte keeps it the only source of
   prices. Bytes that never decode are never charged. *)
let op_cost =
  let b = Bytes.make Isa.instr_size '\000' in
  Array.init 256 (fun opcode ->
      Bytes.set b 0 (Char.chr opcode);
      match Isa.decode b ~pos:0 with Some i -> Cost_model.instr_cost i | None -> 0)

(* The operation of each opcode byte, [Isa.op_of_head] of a head with that
   byte: in [ops] when the rt byte names a register, in [ops_no_rt] when
   it does not. A binop or branch is in the first table only, so an
   operation read from either reads rt only if rt is below 16. *)
let ops = Array.init 256 Isa.op_of_head
let ops_no_rt = Array.init 256 (fun opcode -> Isa.op_of_head (opcode lor (Isa.num_regs lsl 16)))

(* Unchecked guest words, little-endian as [Bytes.get_int64_le]; every
   caller has range-checked the address. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load mem a =
  Int64.to_int (if Sys.big_endian then swap64 (get64u mem a) else get64u mem a)

let[@inline] store mem a v =
  let v = Int64.of_int v in
  set64u mem a (if Sys.big_endian then swap64 v else v)

(* rd and rs are 4-bit fields, and [ops] admits an rt only below 16, so
   every register index the interpreter uses is in range of [regs] ([run]
   checks its length once). *)
let[@inline] get (r : int array) i = Array.unsafe_get r i
let[@inline] set (r : int array) i v = Array.unsafe_set r i v
let[@inline] rd w = Isa.rd_of_head (Isa.head_of_word w)
let[@inline] rs w = Isa.rs_of_head (Isa.head_of_word w)
let[@inline] rt w = Isa.rt_of_head (Isa.head_of_word w)

(* Stops and traps are functions of their own that the loop tail-calls,
   so the loop makes no call and allocates nothing, not even the value a
   stop builds (an allocation in the loop would keep the loop's state out
   of the registers a minor collection may clobber, and one of its values
   would then go to the stack on every instruction). The state the loop
   carries in arguments reaches [t] here. A stop returns [t.stopped]; a
   trap returns [None]. *)
let[@inline never] stop_at t ~pc ~cycles ~instrs s =
  t.pc <- pc;
  t.cycles <- cycles;
  t.instrs <- instrs;
  (* [Some Cycle_limit] is a static constant: the cycle-limit stop that
     ends every slice of a sliced run allocates nothing *)
  let stopped = match s with Cycle_limit -> Some Cycle_limit | s -> Some s in
  t.stopped <- stopped;
  stopped

let[@inline never] halt_at t ~pc ~cycles ~instrs =
  stop_at t ~pc ~cycles ~instrs (Halted t.regs.(0))

let[@inline never] fault_at t ~pc ~cycles ~instrs f at =
  stop_at t ~pc ~cycles ~instrs (Faulted (f, at))

let[@inline never] bad_address t ~pc ~cycles ~instrs a at =
  fault_at t ~pc ~cycles ~instrs (Bad_address a) at

let[@inline never] bad_opcode t ~pc ~cycles ~instrs =
  fault_at t ~pc ~cycles ~instrs (Bad_opcode pc) pc

let[@inline never] trap t ~pc ~cycles ~instrs =
  t.pc <- pc;
  t.cycles <- cycles;
  t.instrs <- instrs;
  None

(* The interpreter dispatches on the operation of the opcode byte it
   fetches and reads operands straight from the instruction word, so a
   retired instruction allocates nothing: only a stop allocates its
   [stopped] value. There is deliberately no decoded-instruction cache:
   injected and overwritten code, which the shellcode and mimicry attacks
   run, needs no invalidation. The instruction is fetched as one word, so
   every operand is read before the instruction stores anything, as if
   decoded whole. A fault leaves pc past the faulting instruction and the
   effects before the fault in place (a push that faults has already moved
   sp), and records the instruction's own pc.

   [exec] is one self-tail-recursive function, not a closure: pc, cycles
   and the instruction count live in its arguments, and reach [t] only at
   a trap or a stop. Its only other arguments are [t], the memory and the
   registers: it reads the cycle limit from [t.max_cycles] and leaves
   [on_sys] to [resume], so that every value it carries fits in a register
   and a retired instruction stores nothing to the stack. *)
let rec exec t mem r pc cycles instrs =
  if cycles > t.max_cycles then stop_at t ~pc ~cycles ~instrs Cycle_limit
  else if pc < 0 || pc > Bytes.length mem - Isa.instr_size then
    bad_address t ~pc ~cycles ~instrs pc pc
  else begin
    let w = Isa.unsafe_word_at mem ~pos:pc in
    let h = Isa.head_of_word w in
    let opcode = Isa.opcode_of_head h in
    let op = Array.unsafe_get (if Isa.rt_of_head h < Isa.num_regs then ops else ops_no_rt) opcode in
    let c = cycles + Array.unsafe_get op_cost opcode and n = instrs + 1 in
    let next = pc + Isa.instr_size in
    match (op : Isa.Op.t) with
    | Invalid -> bad_opcode t ~pc ~cycles ~instrs
    | Halt -> halt_at t ~pc:next ~cycles:c ~instrs:n
    | Nop -> exec t mem r next c n
    | Movi ->
      set r (rd w) (Isa.imm_of_word w);
      exec t mem r next c n
    | Mov ->
      set r (rd w) (get r (rs w));
      exec t mem r next c n
    | Ld ->
      let a = get r (rs w) + Isa.imm_of_word w in
      if fits mem a 8 then begin
        set r (rd w) (load mem a);
        exec t mem r next c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | St ->
      let a = get r (rd w) + Isa.imm_of_word w in
      if fits mem a 8 then begin
        store mem a (get r (rs w));
        mark t a;
        exec t mem r next c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Ldb ->
      let a = get r (rs w) + Isa.imm_of_word w in
      if fits mem a 1 then begin
        set r (rd w) (Char.code (Bytes.unsafe_get mem a));
        exec t mem r next c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Stb ->
      let a = get r (rd w) + Isa.imm_of_word w in
      if fits mem a 1 then begin
        Bytes.unsafe_set mem a (Char.unsafe_chr (get r (rs w) land 0xff));
        mark t a;
        exec t mem r next c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Addi ->
      set r (rd w) (get r (rs w) + Isa.imm_of_word w);
      exec t mem r next c n
    | Add ->
      set r (rd w) (get r (rs w) + get r (rt w));
      exec t mem r next c n
    | Sub ->
      set r (rd w) (get r (rs w) - get r (rt w));
      exec t mem r next c n
    | Mul ->
      set r (rd w) (get r (rs w) * get r (rt w));
      exec t mem r next c n
    | Div ->
      if get r (rt w) = 0 then fault_at t ~pc:next ~cycles:c ~instrs:n Div_by_zero pc
      else begin
        set r (rd w) (get r (rs w) / get r (rt w));
        exec t mem r next c n
      end
    | Mod ->
      if get r (rt w) = 0 then fault_at t ~pc:next ~cycles:c ~instrs:n Div_by_zero pc
      else begin
        set r (rd w) (get r (rs w) mod get r (rt w));
        exec t mem r next c n
      end
    | And ->
      set r (rd w) (get r (rs w) land get r (rt w));
      exec t mem r next c n
    | Or ->
      set r (rd w) (get r (rs w) lor get r (rt w));
      exec t mem r next c n
    | Xor ->
      set r (rd w) (get r (rs w) lxor get r (rt w));
      exec t mem r next c n
    | Shl ->
      set r (rd w) (get r (rs w) lsl (get r (rt w) land 63));
      exec t mem r next c n
    | Shr ->
      set r (rd w) (get r (rs w) asr (get r (rt w) land 63));
      exec t mem r next c n
    | Slt ->
      set r (rd w) (Bool.to_int (get r (rs w) < get r (rt w)));
      exec t mem r next c n
    | Sle ->
      set r (rd w) (Bool.to_int (get r (rs w) <= get r (rt w)));
      exec t mem r next c n
    | Seq ->
      set r (rd w) (Bool.to_int (get r (rs w) = get r (rt w)));
      exec t mem r next c n
    | Sne ->
      set r (rd w) (Bool.to_int (get r (rs w) <> get r (rt w)));
      exec t mem r next c n
    | Beq ->
      let pc = if get r (rs w) = get r (rt w) then Isa.target_of_word w else next in
      exec t mem r pc c n
    | Bne ->
      let pc = if get r (rs w) <> get r (rt w) then Isa.target_of_word w else next in
      exec t mem r pc c n
    | Blt ->
      let pc = if get r (rs w) < get r (rt w) then Isa.target_of_word w else next in
      exec t mem r pc c n
    | Bge ->
      let pc = if get r (rs w) >= get r (rt w) then Isa.target_of_word w else next in
      exec t mem r pc c n
    | Ble ->
      let pc = if get r (rs w) <= get r (rt w) then Isa.target_of_word w else next in
      exec t mem r pc c n
    | Bgt ->
      let pc = if get r (rs w) > get r (rt w) then Isa.target_of_word w else next in
      exec t mem r pc c n
    | Jmp -> exec t mem r (Isa.target_of_word w) c n
    | Jr -> exec t mem r (get r (rs w)) c n
    | Call ->
      let a = get r Isa.sp - 8 in
      set r Isa.sp a;
      if fits mem a 8 then begin
        store mem a next;
        mark t a;
        exec t mem r (Isa.target_of_word w) c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Callr ->
      let a = get r Isa.sp - 8 in
      set r Isa.sp a;
      if fits mem a 8 then begin
        store mem a next;
        mark t a;
        exec t mem r (get r (rs w)) c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Ret ->
      let a = get r Isa.sp in
      if fits mem a 8 then begin
        let pc = load mem a in
        set r Isa.sp (a + 8);
        exec t mem r pc c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Push ->
      let v = get r (rs w) and a = get r Isa.sp - 8 in
      set r Isa.sp a;
      if fits mem a 8 then begin
        store mem a v;
        mark t a;
        exec t mem r next c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Pop ->
      let a = get r Isa.sp in
      if fits mem a 8 then begin
        let v = load mem a in
        set r Isa.sp (a + 8);
        set r (rd w) v;
        exec t mem r next c n
      end
      else bad_address t ~pc:next ~cycles:c ~instrs:n a pc
    | Rdcyc ->
      set r (rd w) c;
      exec t mem r next c n
    | Sys -> trap t ~pc:next ~cycles:c ~instrs:n
  end

(* [exec] returns to [resume] at a [Sys]. [resume] calls [on_sys] and
   re-enters [exec] from what [t] then holds, since the kernel may have
   moved pc (execve), charged cycles, written code or memory, replaced
   [mem], or stopped the machine. It sets the cycle limit at each entry,
   so a run that [on_sys] makes of the same machine leaves this run's
   limit in place. *)
let rec resume t on_sys max_cycles =
  match t.stopped with
  | Some s -> s
  | None ->
    t.max_cycles <- max_cycles;
    (match exec t t.mem t.regs t.pc t.cycles t.instrs with
     | Some s -> s
     | None ->
       (match on_sys t with
        | Sys_kill reason ->
          let s = Killed reason in
          t.stopped <- Some s;
          s
        | Sys_continue -> resume t on_sys max_cycles))

let run t ~on_sys ~max_cycles =
  if Array.length t.regs < Isa.num_regs then invalid_arg "Machine.run: regs";
  resume t on_sys max_cycles
