let initial_brk (img : Obj_file.t) =
  let top =
    List.fold_left
      (fun acc s -> max acc (s.Obj_file.sec_addr + s.Obj_file.sec_size))
      Asm.text_base img.Obj_file.sections
  in
  (top + Asm.page_size - 1) / Asm.page_size * Asm.page_size

(* Every section, Bss included, must fit before any byte is written.
   [addr <= mem_size - len], not [addr + len <= mem_size]: the sum
   overflows for an address near [max_int] and would pass. *)
let check ~mem_size (img : Obj_file.t) =
  List.iter
    (fun (s : Obj_file.section) ->
      let len = max s.sec_size (String.length s.sec_payload) in
      if s.sec_addr < 0 || s.sec_addr > mem_size - len then
        invalid_arg
          (Printf.sprintf "Loader: section %s [0x%x, +%d] outside memory" s.sec_name s.sec_addr
             len))
    img.sections

(* Write the sections into zeroed memory and point pc and sp at the entry
   and the stack top; registers are already zero. The sections were
   checked, so every write succeeds, and it marks its pages for the next
   [load_into] to zero. *)
let place (m : Machine.t) (img : Obj_file.t) =
  List.iter
    (fun (s : Obj_file.section) ->
      match s.sec_kind with
      | Obj_file.Bss -> ()
      | Obj_file.Text | Obj_file.Rodata | Obj_file.Data ->
        ignore (Machine.write_mem m ~addr:s.sec_addr s.sec_payload))
    img.sections;
  m.pc <- img.entry;
  m.regs.(Isa.sp) <- Machine.stack_top m

let load ?(mem_size = Machine.default_mem_size) img =
  check ~mem_size img;
  let m = Machine.create ~mem_size in
  place m img;
  m

let load_into (m : Machine.t) img =
  check ~mem_size:(Bytes.length m.mem) img;
  Machine.zero_written m;
  Array.fill m.regs 0 Isa.num_regs 0;
  place m img
