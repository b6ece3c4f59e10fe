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
    stopped = None }

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
let[@inline] in_range t addr len = addr >= 0 && len >= 0 && addr <= Bytes.length t.mem - len

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

let read_cstring t ~addr ~max =
  if addr < 0 || addr >= Bytes.length t.mem then None
  else begin
    let limit = addr + min max (Bytes.length t.mem - addr) in
    let rec find i = if i >= limit then None else if Bytes.get t.mem i = '\000' then Some i else find (i + 1) in
    match find addr with
    | Some e -> Some (Bytes.sub_string t.mem addr (e - addr))
    | None -> None
  end

let fault t f pc = t.stopped <- Some (Faulted (f, pc))

(* The modeled cost of each opcode byte: [Cost_model.instr_cost] of the
   instruction the byte decodes to. The model prices an operation, never
   its operands, so one decode per byte keeps it the only source of
   prices. Bytes that never decode are never charged. *)
let op_cost =
  let b = Bytes.make Isa.instr_size '\000' in
  Array.init 256 (fun opcode ->
      Bytes.set b 0 (Char.chr opcode);
      match Isa.decode b ~pos:0 with Some i -> Cost_model.instr_cost i | None -> 0)

(* The interpreter dispatches on the operation of the opcode byte it
   fetches and reads operands straight from guest memory, so a retired
   instruction allocates nothing: only a stop allocates its [stopped]
   value. There is deliberately no decoded-instruction cache: injected and
   overwritten code, which the shellcode and mimicry attacks run, needs no
   invalidation. Every operand is read before the instruction stores
   anything, as if decoded whole. A fault leaves [t.pc] past the faulting
   instruction and the effects before the fault in place (a push that
   faults has already moved sp), and records the instruction's own pc. *)
let rec run t ~on_sys ~max_cycles =
  match t.stopped with
  | Some s -> s
  | None ->
    if t.cycles > max_cycles then begin
      t.stopped <- Some Cycle_limit;
      Cycle_limit
    end
    else begin
      let mem = t.mem and r = t.regs and pc = t.pc in
      if pc < 0 || pc > Bytes.length mem - Isa.instr_size then fault t (Bad_address pc) pc
      else begin
        let h = Isa.head_at mem ~pos:pc in
        let op = Isa.op_of_head h in
        if op = Isa.Op.Invalid then fault t (Bad_opcode pc) pc
        else begin
          let cost = Array.unsafe_get op_cost (Isa.opcode_of_head h) in
          t.cycles <- t.cycles + cost;
          t.instrs <- t.instrs + 1;
          t.pc <- pc + Isa.instr_size;
          let rd = Isa.rd_of_head h and rs = Isa.rs_of_head h and rt = Isa.rt_of_head h in
          match (op : Isa.Op.t) with
          | Halt -> t.stopped <- Some (Halted r.(0))
          | Nop | Invalid -> ()
          | Movi -> r.(rd) <- Isa.imm_at mem ~pos:pc
          | Mov -> r.(rd) <- r.(rs)
          | Ld ->
            let a = r.(rs) + Isa.imm_at mem ~pos:pc in
            if word_ok t a then r.(rd) <- Int64.to_int (Bytes.get_int64_le mem a)
            else fault t (Bad_address a) pc
          | St ->
            let a = r.(rd) + Isa.imm_at mem ~pos:pc in
            if word_ok t a then begin
              Bytes.set_int64_le mem a (Int64.of_int r.(rs));
              mark t a
            end
            else fault t (Bad_address a) pc
          | Ldb ->
            let a = r.(rs) + Isa.imm_at mem ~pos:pc in
            if in_range t a 1 then r.(rd) <- Char.code (Bytes.unsafe_get mem a)
            else fault t (Bad_address a) pc
          | Stb ->
            let a = r.(rd) + Isa.imm_at mem ~pos:pc in
            if in_range t a 1 then begin
              Bytes.unsafe_set mem a (Char.unsafe_chr (r.(rs) land 0xff));
              mark t a
            end
            else fault t (Bad_address a) pc
          | Addi -> r.(rd) <- r.(rs) + Isa.imm_at mem ~pos:pc
          | Add -> r.(rd) <- r.(rs) + r.(rt)
          | Sub -> r.(rd) <- r.(rs) - r.(rt)
          | Mul -> r.(rd) <- r.(rs) * r.(rt)
          | Div -> if r.(rt) = 0 then fault t Div_by_zero pc else r.(rd) <- r.(rs) / r.(rt)
          | Mod -> if r.(rt) = 0 then fault t Div_by_zero pc else r.(rd) <- r.(rs) mod r.(rt)
          | And -> r.(rd) <- r.(rs) land r.(rt)
          | Or -> r.(rd) <- r.(rs) lor r.(rt)
          | Xor -> r.(rd) <- r.(rs) lxor r.(rt)
          | Shl -> r.(rd) <- r.(rs) lsl (r.(rt) land 63)
          | Shr -> r.(rd) <- r.(rs) asr (r.(rt) land 63)
          | Slt -> r.(rd) <- Bool.to_int (r.(rs) < r.(rt))
          | Sle -> r.(rd) <- Bool.to_int (r.(rs) <= r.(rt))
          | Seq -> r.(rd) <- Bool.to_int (r.(rs) = r.(rt))
          | Sne -> r.(rd) <- Bool.to_int (r.(rs) <> r.(rt))
          | Beq -> if r.(rs) = r.(rt) then t.pc <- Isa.target_at mem ~pos:pc
          | Bne -> if r.(rs) <> r.(rt) then t.pc <- Isa.target_at mem ~pos:pc
          | Blt -> if r.(rs) < r.(rt) then t.pc <- Isa.target_at mem ~pos:pc
          | Bge -> if r.(rs) >= r.(rt) then t.pc <- Isa.target_at mem ~pos:pc
          | Ble -> if r.(rs) <= r.(rt) then t.pc <- Isa.target_at mem ~pos:pc
          | Bgt -> if r.(rs) > r.(rt) then t.pc <- Isa.target_at mem ~pos:pc
          | Jmp -> t.pc <- Isa.target_at mem ~pos:pc
          | Jr -> t.pc <- r.(rs)
          | Call ->
            let target = Isa.target_at mem ~pos:pc and a = r.(Isa.sp) - 8 in
            r.(Isa.sp) <- a;
            if word_ok t a then begin
              Bytes.set_int64_le mem a (Int64.of_int t.pc);
              mark t a;
              t.pc <- target
            end
            else fault t (Bad_address a) pc
          | Callr ->
            let a = r.(Isa.sp) - 8 in
            r.(Isa.sp) <- a;
            if word_ok t a then begin
              Bytes.set_int64_le mem a (Int64.of_int t.pc);
              mark t a;
              t.pc <- r.(rs)
            end
            else fault t (Bad_address a) pc
          | Ret ->
            let a = r.(Isa.sp) in
            if word_ok t a then begin
              t.pc <- Int64.to_int (Bytes.get_int64_le mem a);
              r.(Isa.sp) <- a + 8
            end
            else fault t (Bad_address a) pc
          | Push ->
            let v = r.(rs) and a = r.(Isa.sp) - 8 in
            r.(Isa.sp) <- a;
            if word_ok t a then begin
              Bytes.set_int64_le mem a (Int64.of_int v);
              mark t a
            end
            else fault t (Bad_address a) pc
          | Pop ->
            let a = r.(Isa.sp) in
            if word_ok t a then begin
              let v = Int64.to_int (Bytes.get_int64_le mem a) in
              r.(Isa.sp) <- a + 8;
              r.(rd) <- v
            end
            else fault t (Bad_address a) pc
          | Sys ->
            (match on_sys t with
             | Sys_continue -> ()
             | Sys_kill reason -> t.stopped <- Some (Killed reason))
          | Rdcyc -> r.(rd) <- t.cycles
        end
      end;
      run t ~on_sys ~max_cycles
    end
