(* The reference fault model the campaign is tested against: faults
   applied through instruction hooks.  A transient counts instructions
   in an insn hook and flips its bit right before the n-th executes; a
   stuck-at register re-asserts its flipped bit before every
   instruction; permanent code and data flips are applied before the
   run.  A transient's run is split at instruction n, so a code flip is
   fetched from instruction n + 1 on even inside the block that was
   executing when it landed.  Memory flips invalidate the translations
   of the word they land in, as a store does. *)

module Bits = S4e_bits.Bits
module Machine = S4e_cpu.Machine
module Hooks = S4e_cpu.Hooks
module Arch_state = S4e_cpu.Arch_state
module Fault = S4e_fault.Fault
module Campaign = S4e_fault.Campaign

let flip_code m addr bit =
  let ram = S4e_mem.Bus.ram m.Machine.bus in
  let base = addr land lnot 3 in
  S4e_mem.Sparse_mem.write32 ram base
    (Bits.flip_bit bit (S4e_mem.Sparse_mem.read32 ram base));
  S4e_cpu.Tb_cache.notify_store m.Machine.tb base;
  S4e_mem.Bus.tlb_flush m.Machine.bus

let flip_data m addr bit =
  let ram = S4e_mem.Bus.ram m.Machine.bus in
  let b = S4e_mem.Sparse_mem.read8 ram addr in
  S4e_mem.Sparse_mem.write8 ram addr (b lxor (1 lsl (bit land 7)));
  S4e_cpu.Tb_cache.notify_store m.Machine.tb addr;
  S4e_mem.Bus.tlb_flush m.Machine.bus

(* Returns the hook to unregister, if any. *)
let arm (m : Machine.t) (f : Fault.t) =
  let st = m.Machine.state in
  let on_insn g = Some (Hooks.on_insn m.Machine.hooks (fun _ _ -> g ())) in
  let at n flip =
    let count = ref 0 in
    on_insn (fun () ->
        incr count;
        if !count = n then flip ())
  in
  let stuck get set r bit =
    let v = 1 - Bits.bit bit (get st r) in
    on_insn (fun () -> set st r (Bits.set_bit bit (v = 1) (get st r)))
  in
  let flip_reg get set r bit () = set st r (Bits.flip_bit bit (get st r)) in
  match (f.Fault.loc, f.Fault.kind) with
  | Fault.Code (a, b), Fault.Permanent ->
      flip_code m a b;
      None
  | Fault.Code (a, b), Fault.Transient n -> at n (fun () -> flip_code m a b)
  | Fault.Data (a, b), Fault.Permanent ->
      flip_data m a b;
      None
  | Fault.Data (a, b), Fault.Transient n -> at n (fun () -> flip_data m a b)
  | Fault.Gpr (r, b), Fault.Permanent ->
      stuck Arch_state.get_reg Arch_state.set_reg r b
  | Fault.Gpr (r, b), Fault.Transient n ->
      at n (flip_reg Arch_state.get_reg Arch_state.set_reg r b)
  | Fault.Fpr (r, b), Fault.Permanent ->
      stuck Arch_state.get_freg Arch_state.set_freg r b
  | Fault.Fpr (r, b), Fault.Transient n ->
      at n (flip_reg Arch_state.get_freg Arch_state.set_freg r b)

let classify ~(golden : Campaign.signature) m = function
  | Machine.Exited c ->
      if Some c = golden.Campaign.sig_exit
         && Machine.uart_output m = golden.Campaign.sig_uart
      then Campaign.Masked
      else Campaign.Sdc
  | Machine.Fatal_trap _ -> Campaign.Crashed
  | Machine.Out_of_fuel | Machine.Wfi_halt -> Campaign.Hung

let run_one ?config ~fuel program ~golden fault =
  let m = Machine.create ?config () in
  S4e_asm.Program.load_machine program m;
  let armed = arm m fault in
  let disarm () = Option.iter (Hooks.unregister m.Machine.hooks) armed in
  let stop =
    match fault.Fault.kind with
    | Fault.Transient n when n < fuel -> (
        let first = Machine.run m ~fuel:n in
        disarm ();
        match first with
        | Machine.Out_of_fuel -> Machine.run m ~fuel:(fuel - n)
        | stop -> stop)
    | _ -> Machine.run m ~fuel
  in
  disarm ();
  classify ~golden m stop

(* A fresh machine running [program] up to instruction [n]; [on_insn]
   sees each instruction's index and pc, [on_mem] each data access. *)
let replay ?config program n ~on_insn ~on_mem =
  let m = Machine.create ?config () in
  S4e_asm.Program.load_machine program m;
  let count = ref 0 in
  let h = m.Machine.hooks in
  ignore
    (Hooks.on_insn h (fun pc _ ->
         incr count;
         on_insn !count pc)
      : Hooks.id);
  ignore (Hooks.on_mem h (fun ev -> on_mem !count ev) : Hooks.id);
  ignore (Machine.run m ~fuel:n : Machine.stop_reason)

(* The pc of instruction [n]. *)
let pc_at ?config program n =
  let pc = ref 0 in
  replay ?config program n
    ~on_insn:(fun i p -> if i = n then pc := p)
    ~on_mem:(fun _ _ -> ());
  !pc

(* The one case where flipping at the instant and flipping in a hook
   before instruction [n] differ: the flipped word is both code and
   data, and instruction [n] uses it in the other role — a code
   transient whose instruction [n] loads or stores the word, or a data
   transient whose instruction [n] is fetched from it. *)
let instant_corner ?config program (f : Fault.t) =
  match (f.Fault.loc, f.Fault.kind) with
  | Fault.Code (addr, _), Fault.Transient n ->
      let base = addr land lnot 3 in
      let hit = ref false in
      replay ?config program n
        ~on_insn:(fun _ _ -> ())
        ~on_mem:(fun i ev ->
          let a = ev.Hooks.mem_addr in
          if i = n && a < base + 4 && a + ev.Hooks.mem_size > base then
            hit := true);
      !hit
  | Fault.Data (addr, _), Fault.Transient n ->
      let pc = pc_at ?config program n in
      pc <= addr && addr < pc + 4
  | _ -> false
