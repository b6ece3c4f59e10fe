(** The SVM interpreter: a flat-memory machine with a deterministic cycle
    counter (standing in for [rdtsc]) and a kernel trap hook for [Sys].

    There is deliberately no W^X protection and return addresses live on the
    in-memory stack, so stack-smashing attacks behave as on the paper's
    x86/Linux platform: an overflowed buffer can overwrite a return address
    and divert control into injected code. System call *monitoring*, not
    memory safety, is the defense under evaluation. *)

type fault =
  | Bad_opcode of int        (** undecodable instruction byte at address *)
  | Bad_address of int       (** out-of-bounds load/store/fetch *)
  | Div_by_zero

type stop =
  | Halted of int            (** [Halt] executed; value of r0 as exit status *)
  | Faulted of fault * int   (** fault and faulting pc *)
  | Killed of string         (** terminated by the kernel (policy violation) *)
  | Cycle_limit

type t = {
  mutable mem : Bytes.t;
  (** Guest memory. It is written only through this module: the
      interpreter's stores and the writers below. Each marks [dirty], and
      {!zero_written} zeroes only the marked pages, so a byte written
      behind the map's back would survive into the next image loaded
      here ({!Loader.load_into}). {!take_over} hands it to a new machine
      and leaves [Bytes.empty] here, so every access through the old
      machine fails closed: reads return [None] and the next fetch
      faults. *)
  mutable dirty : Bytes.t;
  (** The dirty map: one byte per 4 KiB page of [mem], nonzero once a
      write has touched the page since the last {!zero_written}. A write
      marks the page it starts in; a word that starts in a page's last 7
      bytes reaches into the next page unmarked, which {!zero_written}
      covers. It moves with [mem] through {!take_over}. *)
  regs : int array;
  mutable pc : int;
  mutable cycles : int;
  mutable instrs : int;      (** instructions retired (deterministic) *)
  mutable stopped : stop option;
  mutable max_cycles : int;
  (** The cycle limit of the run in progress, or of the last one: {!run}
      sets it, and the interpreter reads it here rather than carrying it
      (0 until the first run). *)
}

type sys_action =
  | Sys_continue           (** kernel handled the call; r0 holds the result *)
  | Sys_kill of string     (** kernel terminates the process *)

val create : mem_size:int -> t
(** Fresh machine with zeroed memory and registers, pc = 0. *)

val take_over : t -> t
(** [take_over old] is a fresh machine (zeroed registers, pc = 0, no
    cycles) that owns [old]'s memory and dirty map as they
    stand: the bytes are not cleared (see {!Loader.load_into}). [old.mem]
    and [old.dirty] become [Bytes.empty], so [old] can never read or
    write the new owner's memory. *)

val zero_written : t -> unit
(** Zero every page marked in [dirty], and the 7 bytes after each, then
    clear the map: memory written since [create] or the last call reads
    as zero again. It costs a scan of the map plus 4 KiB per marked page,
    not a pass over all of memory. *)

val default_mem_size : int
(** 4 MiB. *)

val stack_top : t -> int

val run : t -> on_sys:(t -> sys_action) -> max_cycles:int -> stop
(** Execute until halt, fault, kill or cycle budget exhaustion. Each
    instruction is fetched as one 8-byte word, dispatched on its
    {!Isa.op_of_head} and charged its {!Cost_model.instr_cost}; a retired
    instruction allocates nothing (only the final stop value does).

    While it runs, pc, [cycles] and [instrs] live in the interpreter's
    registers, not in [t], and the interpreter reads the limit from
    [t.max_cycles], which [run] sets. pc, [cycles] and [instrs] reach [t]
    before every [on_sys] call and at every stop. [on_sys] is invoked for
    every [Sys] and sees pc already advanced past the instruction, so the
    call site is [t.pc - Isa.instr_size], and the current [cycles] and
    [instrs], the sys included. Its writes to [pc], [cycles], [instrs], the
    registers, memory ([mem] itself included) and [stopped] take effect
    before the next fetch: setting [stopped] ends the run with that stop.
    [run] sets [t.max_cycles] again after each call, so an [on_sys] that
    runs [t] itself does not change this run's limit. [t] never holds
    [on_sys]: nothing keeps the closure alive after [run] returns or
    raises, and an exception from [on_sys] leaves [t] as the call saw it,
    with its writes, ready to run again.

    Instruction/cycle totals live only in [t.instrs]/[t.cycles]; metric
    accounting is the caller's concern (the kernel mirrors deltas into its
    per-kernel registry), so concurrent machines never bleed into a
    shared counter.
    @raise Invalid_argument if [t.regs] has fewer than {!Isa.num_regs}
    entries. *)

(** {2 Memory accessors (bounds-checked; [None] on out-of-range)}

    Every writer here marks [dirty] for the pages it wrote. *)

val read_word : t -> int -> int option
val write_word : t -> int -> int -> bool
val read_byte : t -> int -> int option
val write_byte : t -> int -> int -> bool
val read_mem : t -> addr:int -> len:int -> string option
val write_mem : t -> addr:int -> string -> bool
val read_into : t -> addr:int -> buf:Bytes.t -> pos:int -> len:int -> bool
(** Copy [len] guest bytes at [addr] into [buf] at [pos] without
    allocating; [false] (and no write) if either range is out of
    bounds. *)

val write_from : t -> addr:int -> buf:Bytes.t -> pos:int -> len:int -> bool
(** Copy [len] bytes of [buf] at [pos] into guest memory at [addr]
    without allocating; [false] (and no write) on a bad range. *)

val mem_equal : t -> addr:int -> string -> bool
(** [mem_equal t ~addr s] is [true] iff the guest bytes at
    [addr .. addr+|s|-1] are in range and equal [s] — an allocation-free
    [read_mem]-and-compare. *)

(** {3 Allocation-free word accessors}

    [read_word] allocates an option per call; on per-trap fast paths that
    alone blows the step's host-allocation budget. Check bounds once with
    [word_ok], then [word_at]/[set_word] read and write the LE word with
    no allocation — same value/bytes as [read_word]/[write_word].
    [word_at]/[set_word] on an address [word_ok] rejected raise
    [Invalid_argument]. *)

val word_ok : t -> int -> bool
val word_at : t -> int -> int
val set_word : t -> int -> int -> unit

val read_cstring : t -> addr:int -> max:int -> string option
(** NUL-terminated string at [addr]; [None] if unterminated within [max]
    bytes or out of range. *)
