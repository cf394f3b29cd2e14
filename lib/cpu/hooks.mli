(** Instrumentation hook API — the ecosystem's TCG-plugin-API analogue.

    Analyses (coverage, QTA co-simulation, fault monitors, IO security
    analysis) subscribe to execution events without touching the
    executor.  Hooks are deliberately version-independent: they observe
    the decoded {!S4e_isa.Instr.t} AST and architectural addresses, not
    internal emulator structures, mirroring how QEMU's stable plugin API
    decouples tools from TCG internals.

    Registration returns an id usable with {!unregister}.  Like
    QEMU's plugin callbacks, the instrumentation is compiled into the
    translated code: while any insn, mem or block subscriber exists,
    the machine translates blocks into instrumented µops (a wrapper per
    instruction that fires the hooks), and it drops back to plain µops
    once the last one unregisters.  The switch happens at the start of
    the next {!Machine.run}, which drops the cached µops; a
    hook registered in the middle of an uninstrumented run (from a trap
    hook, say) therefore sees events from the next run on.  Trap
    subscribers alone never need instrumented code. *)

type word = S4e_bits.Bits.word

type mem_event = {
  mem_pc : word;  (** pc of the accessing instruction *)
  mem_addr : word;
  mem_size : int;
  mem_value : word;
  mem_is_store : bool;
}

type t

type id

val create : unit -> t

val on_insn : t -> (word -> S4e_isa.Instr.t -> unit) -> id
(** Called before each instruction executes, with its pc. *)

val on_mem : t -> (mem_event -> unit) -> id
(** Called after each data memory access (not instruction fetches). *)

val on_block : t -> (word -> int -> unit) -> id
(** Called on entry to a translation block with [(pc, instruction_count)].
    When the TB cache is disabled every instruction is its own block. *)

val on_trap : t -> (Trap.exception_cause -> word -> unit) -> id
(** Called when an exception is taken, with the faulting pc. *)

val unregister : t -> id -> unit

val clear : t -> unit

(** {1 Dispatch (used by the machine)} *)

val has_insn : t -> bool
val has_mem : t -> bool
val has_block : t -> bool

val fire_insn : t -> word -> S4e_isa.Instr.t -> unit
val fire_mem : t -> mem_event -> unit
val fire_block : t -> word -> int -> unit
val fire_trap : t -> Trap.exception_cause -> word -> unit
