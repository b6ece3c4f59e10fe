(** Program loader: places a SEF image into a machine's memory.

    Layout matches {!Asm}: sections at their linked addresses, stack at the
    top of memory growing down, heap (managed by the kernel's [brk]) starting
    at the first page boundary past the highest section. *)

val load : ?mem_size:int -> Obj_file.t -> Machine.t
(** Fresh machine with the image loaded, [pc] at the entry point and [sp]
    at the stack top. @raise Invalid_argument if a section falls outside
    memory. *)

val load_into : Machine.t -> Obj_file.t -> unit
(** [load_into m img] loads [img] into [m]'s existing memory, as {!load}
    does into a fresh one, and leaves the same bytes, registers, [pc] and
    [sp]. It zeroes only the pages written since the last load
    ({!Machine.zero_written}), not all of memory, then every register,
    writes the sections, and sets [pc] and [sp]. [cycles], [instrs] and
    [stopped] are left alone. The kernel uses it to reuse an
    exited process's buffer at spawn ({!Machine.take_over}) and to replace
    the caller's image at [execve].
    @raise Invalid_argument if a section, [Bss] included, falls outside
    [m]'s memory. Every section is checked before anything is zeroed, so
    [m] is then untouched. *)

val check : mem_size:int -> Obj_file.t -> unit
(** The check {!load} and {!load_into} start with.
    @raise Invalid_argument if a section, [Bss] included, does not fit in
    [mem_size] bytes of memory. *)

val initial_brk : Obj_file.t -> int
(** First heap address: the page boundary after the highest section end. *)
