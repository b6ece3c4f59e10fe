(* Tests for the SVM substrate: ISA encode/decode, SEF serialize/parse,
   assembler, loader and interpreter semantics. *)

open Svm

(* --- ISA --- *)

let arbitrary_instr =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let imm = int_range (-1000000) 1000000 in
  let addr = int_range 0 0xfffff in
  let binop =
    oneofl
      [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Mod; Isa.And; Isa.Or; Isa.Xor;
        Isa.Shl; Isa.Shr; Isa.Slt; Isa.Sle; Isa.Seq; Isa.Sne ]
  in
  let cond = oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Le; Isa.Gt ] in
  let gen =
    oneof
      [ return Isa.Halt; return Isa.Nop; return Isa.Ret; return Isa.Sys;
        map2 (fun r v -> Isa.Movi (r, v)) reg imm;
        map2 (fun a b -> Isa.Mov (a, b)) reg reg;
        map3 (fun a b o -> Isa.Ld (a, b, o)) reg reg imm;
        map3 (fun a o b -> Isa.St (a, o, b)) reg imm reg;
        map3 (fun a b o -> Isa.Ldb (a, b, o)) reg reg imm;
        map3 (fun a o b -> Isa.Stb (a, o, b)) reg imm reg;
        (binop >>= fun op -> map3 (fun a b c -> Isa.Binop (op, a, b, c)) reg reg reg);
        map3 (fun a b v -> Isa.Addi (a, b, v)) reg reg imm;
        (cond >>= fun c ->
         map3 (fun a b t -> Isa.Br (c, a, b, t)) reg reg addr);
        map (fun t -> Isa.Jmp t) addr;
        map (fun r -> Isa.Jr r) reg;
        map (fun t -> Isa.Call t) addr;
        map (fun r -> Isa.Callr r) reg;
        map (fun r -> Isa.Push r) reg;
        map (fun r -> Isa.Pop r) reg;
        map (fun r -> Isa.Rdcyc r) reg ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Isa.pp) gen

let prop_isa_roundtrip =
  QCheck.Test.make ~name:"isa encode/decode roundtrip" ~count:1000 arbitrary_instr
    (fun i ->
      let b = Bytes.create Isa.instr_size in
      Isa.encode i b ~pos:0;
      Isa.decode b ~pos:0 = Some i)

let test_decode_garbage () =
  let b = Bytes.make 8 '\xff' in
  Alcotest.(check bool) "0xff opcode invalid" true (Isa.decode b ~pos:0 = None);
  let b2 = Bytes.create 8 in
  Isa.encode (Isa.Binop (Isa.Add, 1, 2, 3)) b2 ~pos:0;
  Bytes.set b2 2 '\xee' (* corrupt rt byte *);
  Alcotest.(check bool) "binop with bad rt invalid" true (Isa.decode b2 ~pos:0 = None)

let test_encode_bounds () =
  let b = Bytes.create 8 in
  Alcotest.check_raises "bad reg" (Invalid_argument "Isa.encode: bad register") (fun () ->
      Isa.encode (Isa.Mov (16, 0)) b ~pos:0);
  Alcotest.check_raises "imm too big" (Invalid_argument "Isa.encode: immediate out of range")
    (fun () -> Isa.encode (Isa.Movi (0, 1 lsl 40)) b ~pos:0)

(* --- SEF --- *)

let sample_image () =
  Asm.assemble_exn
    {|
_start: movi r1, 5
        movi r2, msg      ; address -> reloc
        call double
        halt
double: add r0, r1, r1
        ret
        .rodata
msg:    .asciz "hello"
        .data
ptr:    .addr msg
val:    .word 42
|}

let test_sef_roundtrip () =
  let img = sample_image () in
  let s = Obj_file.serialize img in
  match Obj_file.parse s with
  | Error e -> Alcotest.fail e
  | Ok img' ->
    Alcotest.(check int) "entry" img.Obj_file.entry img'.Obj_file.entry;
    Alcotest.(check int) "sections" (List.length img.sections) (List.length img'.sections);
    Alcotest.(check int) "symbols" (List.length img.symbols) (List.length img'.symbols);
    Alcotest.(check int) "relocs" (List.length img.relocs) (List.length img'.relocs);
    Alcotest.(check string) "text payload" (Obj_file.text_section img).sec_payload
      (Obj_file.text_section img').sec_payload

let test_sef_bad_magic () =
  match Obj_file.parse "NOPE rest" with
  | Error e -> Alcotest.(check string) "magic error" "bad magic" e
  | Ok _ -> Alcotest.fail "parsed garbage"

let test_sef_truncated () =
  let img = sample_image () in
  let s = Obj_file.serialize img in
  match Obj_file.parse (String.sub s 0 (String.length s / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed truncated image"

let test_symbols_and_sections () =
  let img = sample_image () in
  Alcotest.(check bool) "has _start" true (Obj_file.find_symbol img "_start" <> None);
  Alcotest.(check bool) "has double" true (Obj_file.find_symbol img "double" <> None);
  let msg_addr = Option.get (Obj_file.find_symbol img "msg") in
  (match Obj_file.section_containing img msg_addr with
   | Some s -> Alcotest.(check string) "msg in rodata" ".rodata" s.sec_name
   | None -> Alcotest.fail "msg not in any section");
  (* the reloc for `movi r2, msg` is in text at instruction 1's imm field *)
  let text = Obj_file.text_section img in
  let expected_rel = text.sec_addr + Isa.instr_size + 4 in
  Alcotest.(check bool) "movi reloc present" true
    (List.exists (fun r -> r.Obj_file.rel_at = expected_rel) img.relocs);
  (* the .addr directive produced a data reloc *)
  let ptr_addr = Option.get (Obj_file.find_symbol img "ptr") in
  Alcotest.(check bool) "data reloc present" true
    (List.exists (fun r -> r.Obj_file.rel_at = ptr_addr) img.relocs)

let test_asm_errors () =
  let expect_err src frag =
    match Asm.assemble src with
    | Ok _ -> Alcotest.failf "expected error mentioning %S" frag
    | Error e ->
      if not (String.length e.msg >= String.length frag) then Alcotest.failf "weird error";
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e.msg frag)
        true (contains e.msg frag)
  in
  expect_err "_start: bogus r1, r2\n halt" "unknown instruction";
  expect_err "_start: movi r99, 1\n halt" "bad register";
  expect_err "_start: jmp nowhere\n halt" "undefined label";
  expect_err "_start: halt\n_start: halt" "duplicate label";
  expect_err "x: halt" "_start"

(* --- machine semantics --- *)

let run_asm ?(max_cycles = 1_000_000) ?(on_sys = fun _ -> Machine.Sys_kill "unexpected sys")
    src =
  let img = Asm.assemble_exn src in
  let m = Loader.load img in
  let stop = Machine.run m ~on_sys ~max_cycles in
  (m, stop)

let check_halted what expected ((_ : Machine.t), stop) =
  match stop with
  | Machine.Halted v -> Alcotest.(check int) what expected v
  | Machine.Faulted (_, pc) -> Alcotest.failf "%s: faulted at 0x%x" what pc
  | Machine.Killed r -> Alcotest.failf "%s: killed: %s" what r
  | Machine.Cycle_limit -> Alcotest.failf "%s: cycle limit" what

let test_arith () =
  check_halted "arith" 7
    (run_asm
       {|
_start: movi r1, 10
        movi r2, 3
        div r3, r1, r2    ; 3
        mod r4, r1, r2    ; 1
        add r0, r3, r4    ; 4
        movi r5, 3
        add r0, r0, r5    ; 7
        halt
|})

let test_call_ret_stack () =
  check_halted "call/ret" 21
    (run_asm
       {|
_start: movi r1, 5
        call f
        halt
f:      push r1
        movi r2, 16
        add r1, r1, r2
        pop r2            ; r2 = 5
        add r0, r1, r2    ; 21+5? r1=21, r2=5 -> 26? no: r1=5+16=21, r0=21+5=26
        movi r3, 5
        sub r0, r0, r3    ; 21
        ret
|})

let test_memory_ops () =
  check_halted "ld/st/ldb/stb" 0x7f
    (run_asm
       {|
_start: movi r1, buf
        movi r2, 0x7f
        st [r1+0], r2
        ldb r0, [r1+0]
        halt
        .data
buf:    .word 0
|})

let test_branches_loop () =
  (* sum 1..10 = 55 *)
  check_halted "loop" 55
    (run_asm
       {|
_start: movi r1, 0        ; i
        movi r2, 0        ; sum
        movi r3, 10
loop:   bge r1, r3, done
        addi r1, r1, 1
        add r2, r2, r1
        jmp loop
done:   mov r0, r2
        halt
|})

let test_fault_div_zero () =
  let _, stop = run_asm "_start: movi r1, 1\n movi r2, 0\n div r0, r1, r2\n halt" in
  match stop with
  | Machine.Faulted (Machine.Div_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected div-by-zero fault"

(* Wild addresses fault at the accessing instruction, including those near
   [max_int], where a bounds check written as [addr + len <= size]
   overflows and passes. [jr] faults on the fetch, at the target. *)
let test_fault_bad_address () =
  List.iter
    (fun addr ->
      List.iter
        (fun (insn, fault_pc) ->
          let m = Loader.load (Asm.assemble_exn ("_start: " ^ insn ^ "\n halt")) in
          m.regs.(1) <- addr;
          let on_sys _ = Machine.Sys_kill "unexpected sys" in
          match Machine.run m ~on_sys ~max_cycles:1000 with
          | Machine.Faulted (Machine.Bad_address a, pc) when a = addr && pc = fault_pc -> ()
          | _ -> Alcotest.failf "%s with r1 = 0x%x: expected a bad-address fault" insn addr)
        [ ("ld r0, [r1+0]", Asm.text_base);
          ("ldb r0, [r1+0]", Asm.text_base);
          ("st [r1+0], r0", Asm.text_base);
          ("stb [r1+0], r0", Asm.text_base);
          ("jr r1", addr) ])
    [ 0x7fffffff; max_int; max_int - 7 ];
  let m = Machine.create ~mem_size:4096 in
  List.iter
    (fun addr ->
      Alcotest.(check bool) (Printf.sprintf "word_ok 0x%x" addr) false (Machine.word_ok m addr);
      Alcotest.(check bool) "read_word" true (Machine.read_word m addr = None);
      Alcotest.(check bool) "write_mem" false (Machine.write_mem m ~addr "12345678");
      Alcotest.check_raises "word_at" (Invalid_argument "Machine.word_at: out of range") (fun () ->
          ignore (Machine.word_at m addr)))
    [ max_int; max_int - 7; 4089 ]

let test_fault_bad_opcode () =
  (* jump into the data section, which holds non-instruction bytes *)
  let _, stop =
    run_asm "_start: jmp data\n halt\n .data\ndata: .byte 0xff,0xff,0xff,0xff,0xff,0xff,0xff,0xff"
  in
  match stop with
  | Machine.Faulted (Machine.Bad_opcode _, _) -> ()
  | _ -> Alcotest.fail "expected bad-opcode fault"

let test_cycle_limit () =
  let _, stop = run_asm ~max_cycles:1000 "_start: jmp _start" in
  match stop with
  | Machine.Cycle_limit -> ()
  | _ -> Alcotest.fail "expected cycle limit"

let test_sys_hook () =
  (* the kernel hook sees the call site and sets a return value *)
  let img =
    Asm.assemble_exn
      {|
_start: movi r0, 39       ; syscall number
        movi r1, 7
        sys
        halt
|}
  in
  let m = Loader.load img in
  let sites = ref [] in
  let on_sys (mach : Machine.t) =
    sites := (mach.pc - Isa.instr_size) :: !sites;
    let number = mach.regs.(0) and arg = mach.regs.(1) in
    mach.regs.(0) <- (number * 100) + arg;
    Machine.Sys_continue
  in
  (match Machine.run m ~on_sys ~max_cycles:100000 with
   | Machine.Halted v -> Alcotest.(check int) "sys result" 3907 v
   | _ -> Alcotest.fail "did not halt");
  Alcotest.(check int) "one sys" 1 (List.length !sites);
  Alcotest.(check int) "call site is the SYS pc" (Asm.text_base + (2 * Isa.instr_size))
    (List.hd !sites)

let test_sys_kill () =
  let _, stop =
    run_asm ~on_sys:(fun _ -> Machine.Sys_kill "policy violation") "_start: sys\n halt"
  in
  match stop with
  | Machine.Killed r -> Alcotest.(check string) "reason" "policy violation" r
  | _ -> Alcotest.fail "expected kill"

let test_stack_overflow_overwrites_return () =
  (* A function stores past the end of a stack buffer and clobbers its own
     return address, redirecting control — the attack primitive the paper's
     monitor must confine. *)
  let src =
    {|
_start: call victim
        movi r0, 1        ; normal return path
        halt
evil:   movi r0, 666
        halt
victim: addi r13, r13, -16  ; 16-byte local buffer; saved ret is at [r13+16]
        movi r1, evil
        st [r13+16], r1     ; "overflow": overwrite return address
        addi r13, r13, 16
        ret
|}
  in
  check_halted "hijacked return" 666 (run_asm src)

let test_rdcyc_monotonic () =
  let m, stop =
    run_asm
      {|
_start: rdcyc r1
        movi r3, 0
        movi r4, 100
l:      bge r3, r4, d
        addi r3, r3, 1
        jmp l
d:      rdcyc r2
        sub r0, r2, r1
        halt
|}
  in
  (match stop with
   | Machine.Halted delta -> Alcotest.(check bool) "cycles advanced" true (delta > 100)
   | _ -> Alcotest.fail "did not halt");
  Alcotest.(check bool) "machine counter grew" true (m.Machine.cycles > 0)

(* --- the dispatcher against the ISA --- *)

(* The decode-then-execute loop [Machine.run] replaced, kept here as the
   reference its dispatch must match: each instruction is decoded whole
   with [Isa.decode], priced with [Cost_model.instr_cost] and run through
   the bounds-checked accessors. *)
module Reference = struct
  exception Fault of Machine.fault

  let word t a =
    match Machine.read_word t a with Some v -> v | None -> raise (Fault (Machine.Bad_address a))

  let byte t a =
    match Machine.read_byte t a with Some v -> v | None -> raise (Fault (Machine.Bad_address a))

  let store t a v = if not (Machine.write_word t a v) then raise (Fault (Machine.Bad_address a))
  let storeb t a v = if not (Machine.write_byte t a v) then raise (Fault (Machine.Bad_address a))

  let binop op a b =
    match (op : Isa.binop) with
    | Add -> a + b
    | Sub -> a - b
    | Mul -> a * b
    | Div -> if b = 0 then raise (Fault Machine.Div_by_zero) else a / b
    | Mod -> if b = 0 then raise (Fault Machine.Div_by_zero) else a mod b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Shl -> a lsl (b land 63)
    | Shr -> a asr (b land 63)
    | Slt -> if a < b then 1 else 0
    | Sle -> if a <= b then 1 else 0
    | Seq -> if a = b then 1 else 0
    | Sne -> if a <> b then 1 else 0

  let cond c a b =
    match (c : Isa.cond) with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Ge -> a >= b
    | Le -> a <= b
    | Gt -> a > b

  let rec run (t : Machine.t) ~on_sys ~max_cycles =
    let r = t.regs in
    let push v =
      r.(Isa.sp) <- r.(Isa.sp) - 8;
      store t r.(Isa.sp) v
    in
    let pop () =
      let v = word t r.(Isa.sp) in
      r.(Isa.sp) <- r.(Isa.sp) + 8;
      v
    in
    match t.stopped with
    | Some s -> s
    | None when t.cycles > max_cycles ->
      t.stopped <- Some Machine.Cycle_limit;
      Machine.Cycle_limit
    | None ->
      let pc = t.pc in
      (try
         if Machine.read_mem t ~addr:pc ~len:Isa.instr_size = None then
           raise (Fault (Machine.Bad_address pc));
         match Isa.decode t.mem ~pos:pc with
         | None -> raise (Fault (Machine.Bad_opcode pc))
         | Some i ->
           let cost = Cost_model.instr_cost i in
           t.cycles <- t.cycles + cost;
           t.instrs <- t.instrs + 1;
           t.pc <- pc + Isa.instr_size;
           (match i with
            | Halt -> t.stopped <- Some (Machine.Halted r.(0))
            | Nop -> ()
            | Movi (rd, v) -> r.(rd) <- v
            | Mov (rd, rs) -> r.(rd) <- r.(rs)
            | Ld (rd, rs, off) -> r.(rd) <- word t (r.(rs) + off)
            | St (rd, off, rs) -> store t (r.(rd) + off) r.(rs)
            | Ldb (rd, rs, off) -> r.(rd) <- byte t (r.(rs) + off)
            | Stb (rd, off, rs) -> storeb t (r.(rd) + off) r.(rs)
            | Binop (op, rd, rs, rt) -> r.(rd) <- binop op r.(rs) r.(rt)
            | Addi (rd, rs, v) -> r.(rd) <- r.(rs) + v
            | Br (c, rs, rt, target) -> if cond c r.(rs) r.(rt) then t.pc <- target
            | Jmp target -> t.pc <- target
            | Jr rs -> t.pc <- r.(rs)
            | Call target ->
              push t.pc;
              t.pc <- target
            | Callr rs ->
              push t.pc;
              t.pc <- r.(rs)
            | Ret -> t.pc <- pop ()
            | Push rs -> push r.(rs)
            | Pop rd -> r.(rd) <- pop ()
            | Sys ->
              (match on_sys t with
               | Machine.Sys_continue -> ()
               | Machine.Sys_kill reason -> t.stopped <- Some (Machine.Killed reason))
            | Rdcyc rd -> r.(rd) <- t.cycles)
       with Fault f -> t.stopped <- Some (Machine.Faulted (f, pc)));
      run t ~on_sys ~max_cycles
end

let diff_mem_size = 4096

(* Guest memory is seeded noise, so loads read something besides zero. *)
let diff_template =
  let st = Random.State.make [| 15 |] in
  Bytes.init diff_mem_size (fun _ -> Char.chr (Random.State.int st 256))

(* A kernel stand-in: charges cycles, writes r0 and one guest byte, and
   kills on an odd r1. *)
let diff_on_sys (m : Machine.t) =
  m.cycles <- m.cycles + 7;
  if m.regs.(1) land 1 = 1 then Machine.Sys_kill "odd r1"
  else begin
    m.regs.(0) <- m.pc;
    ignore (Machine.write_byte m (m.regs.(2) land 0xfff) 0x5a);
    Machine.Sys_continue
  end

type diff_case = { pc : int; regs : int array; cycles : int; word : string }

let pp_diff_case c =
  let decoded =
    match Isa.decode (Bytes.of_string c.word) ~pos:0 with
    | Some i -> Format.asprintf "%a" Isa.pp i
    | None -> "(undecodable)"
  in
  let byte i = Printf.sprintf "%02x" (Char.code c.word.[i]) in
  Printf.sprintf "pc=0x%x word=%s (%s) regs=[%s] cycles=%d" c.pc
    (String.concat "" (List.init (String.length c.word) byte))
    decoded
    (String.concat "; " (Array.to_list (Array.map string_of_int c.regs)))
    c.cycles

(* Run the case's instruction word at its pc under [run], then stop:
   [max_cycles] is the starting count, and every instruction (or the sys
   stand-in) charges at least one cycle. *)
let diff_run run c =
  let m = Machine.create ~mem_size:diff_mem_size in
  Bytes.blit diff_template 0 m.mem 0 diff_mem_size;
  if c.pc >= 0 && c.pc <= diff_mem_size - Isa.instr_size then
    Bytes.blit_string c.word 0 m.mem c.pc Isa.instr_size;
  Array.blit c.regs 0 m.regs 0 Isa.num_regs;
  m.pc <- c.pc;
  m.cycles <- c.cycles;
  let stop = run m ~on_sys:diff_on_sys ~max_cycles:c.cycles in
  (stop, m)

let same_as_reference c =
  let stop, m = diff_run Machine.run c in
  let stop', m' = diff_run Reference.run c in
  stop = stop' && m.stopped = m'.stopped && m.pc = m'.pc && m.regs = m'.regs
  && m.cycles = m'.cycles && m.instrs = m'.instrs && Bytes.equal m.mem m'.mem

let edge_values =
  [ 0; -1; 1; 8; 0x100; max_int; min_int; max_int - 7; diff_mem_size - 8; diff_mem_size - 1;
    diff_mem_size ]

(* Every opcode byte, with rt both naming a register and not, over a grid of
   operand bytes, immediates and register files. The last register file
   points every register just past the instruction, so a push, call or
   store at offset -8 overwrites the instruction it executes. *)
let test_dispatch_exhaustive () =
  let in_range_regs _ = Array.init Isa.num_regs (fun i -> 0x200 + (16 * i)) in
  let edge_regs _ =
    Array.init Isa.num_regs (fun i -> List.nth edge_values (i mod List.length edge_values))
  in
  let past_the_instruction pc = Array.make Isa.num_regs (pc + Isa.instr_size) in
  let n = ref 0 in
  for opcode = 0 to 255 do
    List.iter
      (fun rt ->
        List.iter
          (fun regs_byte ->
            List.iter
              (fun imm ->
                List.iter
                  (fun regs ->
                    let word = Bytes.make Isa.instr_size '\000' in
                    Bytes.set word 0 (Char.chr opcode);
                    Bytes.set word 1 (Char.chr regs_byte);
                    Bytes.set word 2 (Char.chr rt);
                    Bytes.set_int32_le word 4 (Int32.of_int imm);
                    List.iter
                      (fun pc ->
                        let word = Bytes.to_string word in
                        let c = { pc; regs = regs pc; cycles = 1000; word } in
                        incr n;
                        if not (same_as_reference c) then
                          Alcotest.failf "dispatch differs from the reference: %s" (pp_diff_case c))
                      [ 0x100; diff_mem_size - Isa.instr_size ])
                  [ in_range_regs; edge_regs; past_the_instruction ])
              [ 0; 8; -8; 0x7fff_fff8; -0x8000_0000 ])
          [ 0x12; 0xd3; 0x3d; 0xdd ])
      [ 3; Isa.num_regs; 0xff ]
  done;
  Alcotest.(check int) "cases" (256 * 3 * 4 * 5 * 3 * 2) !n

let gen_diff_case word =
  let open QCheck.Gen in
  let pc =
    frequency
      [ (4, map (fun i -> i * Isa.instr_size) (int_bound ((diff_mem_size / Isa.instr_size) - 1)));
        (2, int_bound (diff_mem_size - Isa.instr_size));
        (1, oneofl [ diff_mem_size - 4; -8; max_int; max_int - 7 ]) ]
  in
  pc >>= fun pc ->
  let reg =
    frequency
      [ (4, oneofl edge_values);
        (2, oneofl [ pc; pc + 8; pc - 8 ]);
        (2, int_bound (diff_mem_size - 1));
        (1, int) ]
  in
  map3 (fun regs cycles word -> { pc; regs; cycles; word }) (array_repeat Isa.num_regs reg)
    (int_bound 1_000_000) word

let prop_dispatch_random_words =
  QCheck.Test.make ~name:"dispatch = reference on random words" ~count:3000
    (QCheck.make ~print:pp_diff_case (gen_diff_case (QCheck.Gen.string_size (QCheck.Gen.return 8))))
    same_as_reference

let prop_dispatch_instrs =
  let encoded =
    QCheck.Gen.map
      (fun i ->
        let b = Bytes.create Isa.instr_size in
        Isa.encode i b ~pos:0;
        Bytes.to_string b)
      (QCheck.get_gen arbitrary_instr)
  in
  QCheck.Test.make ~name:"dispatch = reference on arbitrary_instr" ~count:3000
    (QCheck.make ~print:pp_diff_case (gen_diff_case encoded))
    same_as_reference

(* A guest loop of every instruction class but sys. *)
let every_class_loop =
  {|
_start: movi r1, 0
        movi r2, 4000
        movi r3, buf
        movi r9, 7
        movi r11, f
loop:   bge r1, r2, done
        st [r3+0], r1
        ld r4, [r3+0]
        stb [r3+8], r4
        ldb r5, [r3+8]
        div r6, r4, r9
        mod r7, r4, r9
        mul r6, r6, r9
        add r6, r6, r7
        sub r6, r6, r4
        and r7, r4, r9
        or r7, r7, r5
        xor r7, r7, r4
        shl r7, r7, r9
        shr r7, r7, r9
        slt r8, r4, r9
        sle r8, r4, r9
        seq r8, r6, r6
        sne r8, r4, r9
        beq r1, r2, done
        bne r6, r6, done
        blt r2, r1, done
        ble r2, r1, done
        bgt r1, r2, done
        push r4
        pop r5
        call f
        callr r11
        rdcyc r10
        mov r12, r10
        movi r10, next
        jr r10
next:   nop
        addi r1, r1, 1
        jmp loop
done:   mov r0, r1
        halt
f:      ret
        .data
buf:    .space 16
|}

(* A retired instruction allocates nothing: over the whole loop the minor
   heap grows by no more than the stop value the run ends with. A
   cycle-limit stop, which ends every slice of a sliced run, allocates
   nothing at all. *)
let test_run_allocates_only_the_stop () =
  let m = Loader.load (Asm.assemble_exn every_class_loop) in
  let on_sys _ = Machine.Sys_kill "unexpected sys" in
  let before = int_of_float (Gc.minor_words ()) in
  let stop = Machine.run m ~on_sys ~max_cycles:100_000_000 in
  let words = int_of_float (Gc.minor_words ()) - before in
  (match stop with
   | Machine.Halted n -> Alcotest.(check int) "iterations" 4000 n
   | _ -> Alcotest.fail "loop did not halt");
  Alcotest.(check bool) (Printf.sprintf "%d instructions retired" m.instrs) true
    (m.instrs >= 100_000);
  let stop_words = Obj.reachable_words (Obj.repr m.stopped) in
  if words > stop_words then
    Alcotest.failf "%d minor words over %d instructions (the stop value is %d)" words m.instrs
      stop_words;
  let m = Loader.load (Asm.assemble_exn "_start: jmp _start") in
  let before = int_of_float (Gc.minor_words ()) in
  for slice = 1 to 1000 do
    m.stopped <- None;
    ignore (Machine.run m ~on_sys ~max_cycles:(slice * 100))
  done;
  Alcotest.(check int) "minor words over 1000 cycle-limit stops" 0
    (int_of_float (Gc.minor_words ()) - before)

(* A kernel stand-in for whole programs. It does to the machine what the
   kernel's handlers do, chosen by r0:
   - 1 moves pc to r1, as execve's [Loader.load_into] does;
   - 2 overwrites the instruction right after the sys with
     [movi r5, cycles], as a read into code would;
   - 3 halts with status r1 by setting [stopped] itself, as the kernel's
     exit path does;
   - 4 kills;
   - 5 moves memory to a new buffer, as handing it to a new owner
     ([Machine.take_over]) does;
   - any other number returns pc in r0.
   Every call charges 7 cycles plus r0's low bits, and logs the
   (pc, cycles, instrs) it saw. *)
let kernel_stand_in log (m : Machine.t) =
  log := (m.pc, m.cycles, m.instrs) :: !log;
  let number = m.regs.(0) in
  m.cycles <- m.cycles + 7 + (number land 0xf);
  match number with
  | 1 ->
    m.pc <- m.regs.(1);
    Machine.Sys_continue
  | 2 ->
    let code = Bytes.create Isa.instr_size in
    Isa.encode (Isa.Movi (5, m.cycles)) code ~pos:0;
    ignore (Machine.write_from m ~addr:m.pc ~buf:code ~pos:0 ~len:Isa.instr_size);
    Machine.Sys_continue
  | 3 ->
    m.stopped <- Some (Machine.Halted m.regs.(1));
    Machine.Sys_continue
  | 4 -> Machine.Sys_kill "stand-in kill"
  | 5 ->
    m.mem <- Bytes.copy m.mem;
    Machine.Sys_continue
  | _ ->
    m.regs.(0) <- m.pc;
    Machine.Sys_continue

(* Programs that trap into [kernel_stand_in]. An interpreter that kept
   pc, cycles or the next instruction across a trap instead of re-reading
   them runs the wrong code or counts the wrong cycles here. *)
let trapping_programs =
  [ (* execve: the instructions after the first sys never run *)
    {|
_start: movi r0, 1
        movi r1, image
        sys
        movi r0, 99
        halt
image:  movi r0, 0
        sys
        rdcyc r7
        movi r0, 3
        movi r1, 42
        sys
        movi r0, 77
        halt
|};
    (* a read into code: each pass runs the movi the trap wrote *)
    {|
_start: movi r3, 0
        movi r4, 0
        movi r6, 5
loop:   movi r0, 2
        sys
        nop
        add r3, r3, r5
        addi r4, r4, 1
        blt r4, r6, loop
        movi r0, 3
        mov r1, r3
        sys
        halt
|};
    (* execve outside memory: the next fetch faults at the new pc *)
    "_start: movi r0, 1\n movi r1, -8\n sys\n halt";
    (* a kill after a call that returns *)
    "_start: movi r0, 0\n sys\n mov r8, r0\n movi r0, 4\n sys\n halt";
    (* stores after memory moved land in the new buffer *)
    "_start: movi r0, 5\n sys\n movi r1, 0x3000\n movi r2, 9\n st [r1+0], r2\n push r2\n\
     ld r0, [r1+0]\n halt" ]

type final = {
  stop : Machine.stop;
  machine : Machine.t;
  calls : (int * int * int) list;  (** what each trap saw, in order *)
}

(* Run [src] under [run] and the stand-in, one [max_cycles] slice at a
   time, the slice lengths taken from [slices] in turn, up to
   [program_cycles] in all. After a [Cycle_limit] the run resumes with
   [stopped] cleared, as the kernel's callers resume a process. No
   [slices] is one uninterrupted run. *)
let program_cycles = 10_000_000

let run_sliced run ?(slices = []) src =
  let m = Loader.load ~mem_size:0x10000 (Asm.assemble_exn src) in
  let log = ref [] in
  let on_sys = kernel_stand_in log in
  let rec go = function
    | [] -> run m ~on_sys ~max_cycles:program_cycles
    | slice :: rest ->
      (match run m ~on_sys ~max_cycles:(min program_cycles (m.Machine.cycles + slice)) with
       | Machine.Cycle_limit when m.cycles < program_cycles ->
         m.stopped <- None;
         go (if rest = [] then slices else rest)
       | stop -> stop)
  in
  let stop = go slices in
  { stop; machine = m; calls = List.rev !log }

let same_final a b =
  a.stop = b.stop && a.machine.stopped = b.machine.stopped && a.machine.pc = b.machine.pc
  && a.machine.cycles = b.machine.cycles && a.machine.instrs = b.machine.instrs
  && a.machine.regs = b.machine.regs
  && Bytes.equal a.machine.mem b.machine.mem
  && a.calls = b.calls

(* Whole programs: the dispatcher and the reference agree on the result,
   the machine state and what every trap saw. *)
let test_dispatch_programs () =
  List.iter
    (fun src ->
      let f = run_sliced Machine.run src and f' = run_sliced Reference.run src in
      Alcotest.(check bool) "same stop" true
        (f.stop = f'.stop && f.machine.stopped = f'.machine.stopped);
      Alcotest.(check int) "same pc" f'.machine.pc f.machine.pc;
      Alcotest.(check int) "same cycles" f'.machine.cycles f.machine.cycles;
      Alcotest.(check int) "same instrs" f'.machine.instrs f.machine.instrs;
      Alcotest.(check bool) "same regs" true (f.machine.regs = f'.machine.regs);
      Alcotest.(check bool) "same memory" true (Bytes.equal f.machine.mem f'.machine.mem);
      Alcotest.(check (list (triple int int int))) "same traps" f'.calls f.calls)
    ([ every_class_loop;
       "_start: movi r1, 5\n call f\n halt\nf: push r1\n pop r2\n add r0, r1, r2\n ret";
       "_start: call f\n movi r0, 1\n halt\nevil: movi r0, 666\n halt\n\
        f: addi r13, r13, -16\n movi r1, evil\n st [r13+16], r1\n addi r13, r13, 16\n ret" ]
    @ trapping_programs)

(* The stand-in's effects show: the programs end as written. *)
let test_trapping_programs_end () =
  let stops = List.map (fun src -> (run_sliced Machine.run src).stop) trapping_programs in
  Alcotest.(check bool) "execve, then exit 42" true (List.nth stops 0 = Machine.Halted 42);
  (match List.nth stops 1 with
   | Machine.Halted sum -> Alcotest.(check bool) "the written movi ran" true (sum > 0)
   | _ -> Alcotest.fail "read into code: no exit");
  Alcotest.(check bool) "execve outside memory" true
    (List.nth stops 2 = Machine.Faulted (Machine.Bad_address (-8), -8));
  Alcotest.(check bool) "kill" true (List.nth stops 3 = Machine.Killed "stand-in kill");
  Alcotest.(check bool) "memory moved" true (List.nth stops 4 = Machine.Halted 9)

(* Stopping at random cycle limits and resuming changes nothing: every
   [Cycle_limit] stop writes back the state the loop carries. *)
let prop_slices_resume =
  let programs = Array.of_list (every_class_loop :: trapping_programs) in
  let whole = Array.map (fun src -> lazy (run_sliced Machine.run src)) programs in
  let reference = Array.map (fun src -> lazy (run_sliced Reference.run src)) programs in
  let gen =
    QCheck.Gen.(
      pair
        (int_bound (Array.length programs - 1))
        (list_size (int_range 1 12)
           (frequency [ (3, int_bound 8); (2, int_bound 300); (1, int_bound 50_000) ])))
  in
  let print (i, slices) =
    Printf.sprintf "program %d, slices [%s]" i (String.concat "; " (List.map string_of_int slices))
  in
  QCheck.Test.make ~name:"run in cycle slices = one run = reference" ~count:200
    (QCheck.make ~print gen) (fun (i, slices) ->
      let f = run_sliced Machine.run ~slices programs.(i) in
      same_final f (Lazy.force whole.(i)) && same_final f (Lazy.force reference.(i)))

(* --- the limit and the hook are per run --- *)

(* [run] reads its cycle limit from the machine, where each run sets it.
   One machine is run in turn under different limits and hooks: one hook
   raises, and one runs the machine itself under a shorter limit. *)
exception Hook_raised

(* 60 passes, one trap each, then a call with r0 = 3, which either
   stand-in ends by setting [stopped] *)
let trap_loop =
  {|
_start: movi r3, 0
        movi r4, 0
        movi r6, 60
loop:   movi r0, 0
        sys
        add r3, r3, r0
        addi r4, r4, 1
        blt r4, r6, loop
        movi r0, 3
        mov r1, r3
        sys
        halt
|}

(* another stand-in: charges 3 cycles and returns the cycle count in r0 *)
let cycles_hook (m : Machine.t) =
  m.cycles <- m.cycles + 3;
  if m.regs.(0) = 3 then m.stopped <- Some (Machine.Halted m.regs.(1))
  else m.regs.(0) <- m.cycles;
  Machine.Sys_continue

(* the runs made in turn, and the state after each: the stop ([None] if
   the hook raised), pc, cycles, count, registers, [stopped] and memory;
   then what every call of [kernel_stand_in] saw. [Cycle_limit] is
   cleared after each run, as the kernel's callers do. *)
let runs_in_turn run =
  let m = Loader.load ~mem_size:0x10000 (Asm.assemble_exn trap_loop) in
  let log = ref [] in
  let raising _ = raise Hook_raised in
  (* runs [m] from inside the hook, under a limit 20 cycles ahead *)
  let nested (m : Machine.t) =
    ignore (run m ~on_sys:cycles_hook ~max_cycles:(m.cycles + 20));
    if m.stopped = Some Machine.Cycle_limit then m.stopped <- None;
    Machine.Sys_continue
  in
  let states =
    List.map
      (fun (on_sys, max_cycles) ->
        let stop = try Some (run m ~on_sys ~max_cycles) with Hook_raised -> None in
        let state =
          (stop, m.pc, m.cycles, m.instrs, Array.copy m.regs, m.stopped, Bytes.to_string m.mem)
        in
        if m.stopped = Some Machine.Cycle_limit then m.stopped <- None;
        state)
      [ (kernel_stand_in log, 100); (cycles_hook, 250); (raising, max_int); (nested, 350);
        (kernel_stand_in log, program_cycles) ]
  in
  (states, List.rev !log)

let test_runs_in_turn () =
  let got, calls = runs_in_turn Machine.run and expected, calls' = runs_in_turn Reference.run in
  List.iteri
    (fun i ((stop, pc, cycles, instrs, regs, stopped, mem), e) ->
      let stop', pc', cycles', instrs', regs', stopped', mem' = e in
      let what = Printf.sprintf "run %d: %s" (i + 1) in
      Alcotest.(check bool) (what "same stop") true (stop = stop' && stopped = stopped');
      Alcotest.(check int) (what "same pc") pc' pc;
      Alcotest.(check int) (what "same cycles") cycles' cycles;
      Alcotest.(check int) (what "same instrs") instrs' instrs;
      Alcotest.(check bool) (what "same regs") true (regs = regs');
      Alcotest.(check bool) (what "same memory") true (String.equal mem mem'))
    (List.combine got expected);
  Alcotest.(check (list (triple int int int))) "same stand-in calls" calls' calls;
  let stops = List.map (fun (stop, _, _, _, _, _, _) -> stop) got in
  Alcotest.(check bool) "two limits, a raise, a limit, then the end" true
    (match stops with
     | [ Some Machine.Cycle_limit; Some Machine.Cycle_limit; None; Some Machine.Cycle_limit;
         Some (Machine.Halted _) ] -> true
     | _ -> false)

(* [run] keeps no hook: once it has returned or raised, nothing in the
   machine keeps its [on_sys] closure alive. *)
let test_run_keeps_no_hook () =
  let m = Loader.load ~mem_size:0x10000 (Asm.assemble_exn trap_loop) in
  let hooks = Weak.create 2 in
  let[@inline never] run_with i ~raises =
    (* the hook captures [calls], so it is a heap block the collector can
       free, not a static closure *)
    let calls = ref 0 in
    let on_sys (_ : Machine.t) =
      incr calls;
      if raises then raise Hook_raised else Machine.Sys_continue
    in
    Weak.set hooks i (Some on_sys);
    (try ignore (Machine.run m ~on_sys ~max_cycles:100) with Hook_raised -> ());
    m.stopped <- None
  in
  run_with 0 ~raises:false;
  run_with 1 ~raises:true;
  Gc.full_major ();
  Alcotest.(check bool) "both hooks collected" true
    ((not (Weak.check hooks 0)) && not (Weak.check hooks 1));
  Alcotest.(check bool) "the machine ran" true (m.instrs > 0)

(* --- C strings --- *)

(* [read_cstring] at the edges of memory and of [max]; only a found
   string allocates, and only the result. *)
let test_read_cstring_edges () =
  let size = 64 in
  let m = Machine.create ~mem_size:size in
  ignore (Machine.write_mem m ~addr:(size - 4) "xyz");
  ignore (Machine.write_mem m ~addr:8 "hello");
  let cases =
    [ ("NUL in the last byte", size - 4, 100, Some "xyz");
      ("NUL in the last byte, max reaches it", size - 4, 4, Some "xyz");
      ("NUL one past max", size - 4, 3, None);
      ("last byte is the NUL", size - 1, 1, Some "");
      ("no NUL within max", 8, 5, None);
      ("NUL at max", 8, 6, Some "hello");
      ("max = 0", 8, 0, None);
      ("max = 0 on a NUL", 0, 0, None);
      ("max < 0", 8, -1, None);
      ("max = max_int", 8, max_int, Some "hello");
      ("addr < 0", -1, 10, None);
      ("addr = min_int", min_int, max_int, None);
      ("addr = memory size", size, 10, None);
      ("addr past memory", size + 1, 10, None) ]
  in
  List.iter
    (fun (what, addr, max, expected) ->
      let before = int_of_float (Gc.minor_words ()) in
      let got = Machine.read_cstring m ~addr ~max in
      let words = int_of_float (Gc.minor_words ()) - before in
      Alcotest.(check (option string)) what expected got;
      Alcotest.(check int) (what ^ ": words") (Obj.reachable_words (Obj.repr got)) words)
    cases;
  (* no NUL from addr to the end of memory *)
  ignore (Machine.write_byte m (size - 1) (Char.code 'w'));
  Alcotest.(check (option string)) "unterminated to the end" None
    (Machine.read_cstring m ~addr:(size - 4) ~max:max_int)

let test_loader_brk () =
  let img = sample_image () in
  let brk = Loader.initial_brk img in
  Alcotest.(check int) "brk page aligned" 0 (brk mod Asm.page_size);
  List.iter
    (fun (s : Obj_file.section) ->
      Alcotest.(check bool) (s.sec_name ^ " below brk") true (s.sec_addr + s.sec_size <= brk))
    img.Obj_file.sections

let prop_asm_pp_roundtrip =
  (* Isa.pp output must reassemble to the same instruction. *)
  QCheck.Test.make ~name:"pp/assemble roundtrip" ~count:500 arbitrary_instr (fun i ->
      (* discard instructions whose immediates the assembler would reject *)
      let ok_target t = t >= 0 in
      let valid =
        match i with
        | Isa.Br (_, _, _, t) | Isa.Jmp t | Isa.Call t -> ok_target t
        | _ -> true
      in
      QCheck.assume valid;
      let src = Format.asprintf "_start: %a\n halt" Isa.pp i in
      match Asm.assemble src with
      | Error _ -> false
      | Ok img ->
        let text = Obj_file.text_section img in
        Isa.decode (Bytes.of_string text.sec_payload) ~pos:0 = Some i)

(* --- reloading a used machine --- *)

(* [Loader.load_into] zeroes only the pages the dirty map marks, so a
   writer that forgot to mark would leave its bytes in the next image. The
   property writes through every writer, then reloads: the machine must
   hold exactly what a fresh load of the second image holds. Addresses
   lean to page edges, a page's last 1-7 bytes included, where a word
   reaches into the next page. *)
type write =
  | Write_word of int * int
  | Write_byte of int * int
  | Write_mem of int * string
  | Write_from of int * string
  | Set_word of int * int
  | Step of Isa.instr * int * int  (** instruction, store address, r2 *)

let mem_size = Machine.default_mem_size

let pp_write = function
  | Write_word (a, v) -> Printf.sprintf "write_word 0x%x %d" a v
  | Write_byte (a, v) -> Printf.sprintf "write_byte 0x%x %d" a v
  | Write_mem (a, s) -> Printf.sprintf "write_mem 0x%x (%d bytes)" a (String.length s)
  | Write_from (a, s) -> Printf.sprintf "write_from 0x%x (%d bytes)" a (String.length s)
  | Set_word (a, v) -> Printf.sprintf "set_word 0x%x %d" a v
  | Step (i, a, v) -> Format.asprintf "step %a at 0x%x, r2 = %d" Isa.pp i a v

let gen_edge_addr =
  let open QCheck.Gen in
  let page = Asm.page_size in
  frequency
    [ (8,
       let* p = int_bound ((mem_size / page) - 1) in
       let* off =
         frequency
           [ (3, int_range (page - 8) (page - 1)); (2, int_bound 7); (1, int_bound (page - 1)) ]
       in
       return ((p * page) + off));
      (1, oneofl [ -8; -1; mem_size - 8; mem_size - 7; mem_size; max_int; max_int - 7 ]) ]

(* nonzero bytes, so a write that survives a reload shows *)
let gen_payload =
  let open QCheck.Gen in
  string_size
    ~gen:(char_range '\001' '\255')
    (frequency [ (6, int_range 1 24); (1, int_range 4000 9000) ])

let gen_write =
  let open QCheck.Gen in
  let* a = gen_edge_addr in
  let* v = int_range 1 max_int in
  let* s = gen_payload in
  let* off = int_range (-16) 16 in
  oneofl
    [ Write_word (a, v); Write_byte (a, 1 + (v mod 255)); Write_mem (a, s); Write_from (a, s);
      Set_word (a, v); Step (Isa.St (1, off, 2), a, v); Step (Isa.Stb (1, off, 2), a, v);
      Step (Isa.Push 2, a, v); Step (Isa.Call 0x2000, a, v); Step (Isa.Callr 2, a, v) ]

(* a text section at [Asm.text_base] plus up to three more sections at
   page-edge addresses, moved down where they would not fit *)
let gen_image =
  let open QCheck.Gen in
  let gen_section i =
    let* kind = oneofl [ Obj_file.Rodata; Obj_file.Data; Obj_file.Bss ] in
    let* addr = gen_edge_addr in
    let* payload = gen_payload in
    let size = String.length payload in
    return
      { Obj_file.sec_name = Printf.sprintf ".s%d" i;
        sec_kind = kind;
        sec_addr = max 0 (min addr (mem_size - size));
        sec_size = size;
        sec_payload = (if kind = Obj_file.Bss then "" else payload) }
  in
  let* text = string_size ~gen:(char_range '\001' '\255') (int_range 8 64) in
  let* n = int_bound 3 in
  let* extra = flatten_l (List.init n gen_section) in
  return
    { Obj_file.entry = Asm.text_base;
      sections =
        { Obj_file.sec_name = ".text";
          sec_kind = Obj_file.Text;
          sec_addr = Asm.text_base;
          sec_size = String.length text;
          sec_payload = text }
        :: extra;
      symbols = [];
      relocs = [] }

let step_pc = Asm.text_base

(* [Step] runs one instruction, written at [step_pc], with r1 and sp aimed
   so that it stores at the given address: [max_cycles = 0] stops the run
   after the first instruction, since every store costs cycles. *)
let apply (m : Machine.t) = function
  | Write_word (a, v) -> ignore (Machine.write_word m a v)
  | Write_byte (a, v) -> ignore (Machine.write_byte m a v)
  | Write_mem (a, s) -> ignore (Machine.write_mem m ~addr:a s)
  | Write_from (a, s) ->
    let buf = Bytes.of_string ("pad" ^ s) in
    ignore (Machine.write_from m ~addr:a ~buf ~pos:3 ~len:(String.length s))
  | Set_word (a, v) -> if Machine.word_ok m a then Machine.set_word m a v
  | Step (i, a, v) ->
    let code = Bytes.create Isa.instr_size in
    Isa.encode i code ~pos:0;
    ignore (Machine.write_from m ~addr:step_pc ~buf:code ~pos:0 ~len:Isa.instr_size);
    let off = match i with Isa.St (_, off, _) | Isa.Stb (_, off, _) -> off | _ -> 0 in
    m.regs.(1) <- a - off;
    m.regs.(2) <- v;
    m.regs.(Isa.sp) <- a + 8;
    m.pc <- step_pc;
    m.cycles <- 0;
    m.stopped <- None;
    ignore (Machine.run m ~on_sys:(fun _ -> Machine.Sys_kill "sys") ~max_cycles:0);
    m.stopped <- None

let same_as_fresh_load (m : Machine.t) img =
  let fresh = Loader.load img in
  Bytes.equal m.mem fresh.mem && m.regs = fresh.regs && m.pc = fresh.pc

(* Two rounds, the second through [Machine.take_over] as at spawn: the map
   must start clean after a reload and move with the buffer. *)
let prop_reload_equals_fresh_load =
  let gen =
    QCheck.Gen.(
      quad gen_image (list_size (int_range 1 30) gen_write) gen_image
        (list_size (int_range 1 30) gen_write))
  in
  let print (_, w1, _, w2) =
    String.concat "\n" (List.map pp_write w1 @ ("-- reload --" :: List.map pp_write w2))
  in
  QCheck.Test.make ~name:"load_into after writes = fresh load" ~count:200
    (QCheck.make ~print gen)
    (fun (img_a, w1, img_b, w2) ->
      let m = Loader.load img_a in
      List.iter (apply m) w1;
      Loader.load_into m img_b;
      same_as_fresh_load m img_b
      &&
      let m = Machine.take_over m in
      List.iter (apply m) w2;
      Loader.load_into m img_a;
      same_as_fresh_load m img_a)

let suite =
  [ Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
    Alcotest.test_case "encode bounds" `Quick test_encode_bounds;
    Alcotest.test_case "sef roundtrip" `Quick test_sef_roundtrip;
    Alcotest.test_case "sef bad magic" `Quick test_sef_bad_magic;
    Alcotest.test_case "sef truncated" `Quick test_sef_truncated;
    Alcotest.test_case "symbols sections relocs" `Quick test_symbols_and_sections;
    Alcotest.test_case "assembler errors" `Quick test_asm_errors;
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "call/ret/stack" `Quick test_call_ret_stack;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "branch loop" `Quick test_branches_loop;
    Alcotest.test_case "div by zero faults" `Quick test_fault_div_zero;
    Alcotest.test_case "bad address faults" `Quick test_fault_bad_address;
    Alcotest.test_case "bad opcode faults" `Quick test_fault_bad_opcode;
    Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
    Alcotest.test_case "sys hook sees call site" `Quick test_sys_hook;
    Alcotest.test_case "sys kill" `Quick test_sys_kill;
    Alcotest.test_case "stack smash hijacks return" `Quick test_stack_overflow_overwrites_return;
    Alcotest.test_case "rdcyc monotonic" `Quick test_rdcyc_monotonic;
    Alcotest.test_case "loader brk" `Quick test_loader_brk;
    Alcotest.test_case "dispatch = reference, every opcode byte" `Quick test_dispatch_exhaustive;
    Alcotest.test_case "dispatch = reference, whole programs" `Quick test_dispatch_programs;
    Alcotest.test_case "trapping programs end as written" `Quick test_trapping_programs_end;
    Alcotest.test_case "run allocates only the stop" `Quick test_run_allocates_only_the_stop;
    Alcotest.test_case "runs in turn under other limits and hooks" `Quick test_runs_in_turn;
    Alcotest.test_case "run keeps no hook" `Quick test_run_keeps_no_hook;
    Alcotest.test_case "read_cstring edges" `Quick test_read_cstring_edges ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_isa_roundtrip;
        prop_asm_pp_roundtrip;
        prop_dispatch_random_words;
        prop_dispatch_instrs;
        prop_slices_resume;
        prop_reload_equals_fresh_load ]

let () = Alcotest.run "svm" [ ("svm", suite) ]
