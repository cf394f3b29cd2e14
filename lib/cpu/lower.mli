(** Translation-block lowering — compiles decoded instructions into
    µop closures.

    Where the single-step interpreter ({!Exec.execute}) re-dispatches
    on the {!S4e_isa.Instr.t} AST, re-matches the timing model, and
    re-derives hazard sources on every execution, [lower_entry] does
    all of it once per translation:

    - the executor dispatch (including sub-opcode selection, immediate
      sign-extension, and branch/jump target arithmetic) is resolved
      into a closure per instruction;
    - the {!Timing_model} cost is precomputed for both branch outcomes;
    - the load-use hazard source set is baked into an int bitmask
      ({!S4e_isa.Instr.source_mask});
    - instrumentation (hooks, flight recorder) is compiled in as a
      per-µop wrapper ({!lower_entry}), so plain µops carry none.

    Cycle charges are returned by each µop and batched by the machine;
    µops that can observe time (CSR accesses and device-space bus
    accesses) call [lx_flush_time] first, which keeps batched ticking
    observationally identical to per-instruction ticking.

    The lowered engine must stay byte-identical to {!Exec.execute} on
    every instruction — enforced by the differential property tests. *)

type word = int

type ctx = {
  lx_state : Arch_state.t;
  lx_bus : S4e_mem.Bus.t;
  lx_timing : Timing_model.t;
  lx_flush_time : unit -> unit;
      (** apply batched cycles to [cycle]/CLINT before time-observing ops *)
  lx_notify_store : word -> unit;
      (** translation-cache invalidation on stores *)
  lx_dev_limit : word;
      (** bus addresses below this may reach a device (and hence observe
          or mutate time): flush batched cycles first *)
}

val lower_entry :
  ?wrap:(Tb_cache.entry -> int -> (unit -> int) -> unit -> int) ->
  ctx ->
  Tb_cache.entry ->
  Tb_cache.uop array
(** Lowers every instruction of a block.  [wrap entry k exec] replaces
    µop [k]'s closure [exec] with one that still executes instruction
    [k] and returns its cycle charge (the machine's instrumentation). *)
