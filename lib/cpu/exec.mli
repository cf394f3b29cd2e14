(** Single-instruction executor.

    [execute ?on_mem state bus ~size instr] performs one architectural
    step: reads operands, performs the operation (including bus
    accesses), writes results, and advances [state.pc] (by [size] bytes,
    or to the control-flow target).  Raises {!Trap.Exn} on synchronous
    exceptions, leaving [state.pc] at the faulting instruction so the
    machine can enter the trap.

    The written register is held to the hart's stuck-at pins
    ({!Arch_state.pin}), like every other register writer.

    The return value reports whether a conditional branch was taken
    ([false] for every non-branch); the machine feeds it to the timing
    model.

    [on_mem] observes each data access; it is passed explicitly (rather
    than via {!Hooks}) so the executor stays container-free. *)

val execute :
  ?on_mem:(Hooks.mem_event -> unit) ->
  Arch_state.t ->
  S4e_mem.Bus.t ->
  size:int ->
  S4e_isa.Instr.t ->
  bool

(** {1 Lowering support}

    The block-lowering pipeline ({!Lower}) compiles decoded
    instructions into closures at translate time.  The helpers below
    expose the executor's per-format semantics so the lowered closures
    compute bit-identical results; the [*_fn] selectors resolve the
    sub-opcode dispatch once and return the operation as a first-class
    function. *)

type word = int

val alu_fn : S4e_isa.Instr.op_r -> word -> word -> word
val imm_fn : S4e_isa.Instr.op_i -> word -> word -> word
(** Second argument is the sign-extended immediate
    ([Bits.of_signed imm]). *)

val shift_fn : S4e_isa.Instr.op_shift -> word -> int -> word
val unary_fn : S4e_isa.Instr.op_unary -> word -> word
val branch_fn : S4e_isa.Instr.op_branch -> word -> word -> bool
val amo_fn : S4e_isa.Instr.op_amo -> word -> word -> word

val load_value : S4e_mem.Bus.t -> S4e_isa.Instr.op_load -> word -> word
(** Raises {!Trap.Exn} on misalignment. *)

val load_size : S4e_isa.Instr.op_load -> int
val store_size : S4e_isa.Instr.op_store -> int

val fp_op : Arch_state.t -> S4e_isa.Instr.op_fp -> word -> word -> word
val fp_cmp : Arch_state.t -> S4e_isa.Instr.op_fp_cmp -> word -> word -> word
val fsqrt_bits : Arch_state.t -> word -> word
val fcvt_w_s : Arch_state.t -> unsigned:bool -> word -> word
val fcvt_s_w : unsigned:bool -> word -> word
