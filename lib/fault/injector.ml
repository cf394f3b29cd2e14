module Bits = S4e_bits.Bits
module Machine = S4e_cpu.Machine
module Arch_state = S4e_cpu.Arch_state

type pin = Machine.pin

let flip_code m addr bit =
  let ram = S4e_mem.Bus.ram m.Machine.bus in
  (* bit within the 32-bit word at the (aligned) address *)
  let base = addr land lnot 3 in
  let w = S4e_mem.Sparse_mem.read32 ram base in
  S4e_mem.Sparse_mem.write32 ram base (Bits.flip_bit bit w);
  S4e_cpu.Tb_cache.notify_store m.Machine.tb base;
  (* Writing through [Sparse_mem] mutates page buffers in place, so the
     bus TLB stays content-coherent — but an injector write is exactly
     the kind of behind-the-bus mutation the TLB contract does not
     cover, so flush rather than rely on that implementation detail. *)
  S4e_mem.Bus.tlb_flush m.Machine.bus

(* Like a store, a data flip kills the translations of the word it
   lands in: data faults may hit a word the program also executes. *)
let flip_data m addr bit =
  let ram = S4e_mem.Bus.ram m.Machine.bus in
  let b = S4e_mem.Sparse_mem.read8 ram addr in
  S4e_mem.Sparse_mem.write8 ram addr (b lxor (1 lsl (bit land 7)));
  S4e_cpu.Tb_cache.notify_store m.Machine.tb addr;
  S4e_mem.Bus.tlb_flush m.Machine.bus

(* Reject malformed faults up front: register accessors use unchecked
   array indexing on the hot path, so an out-of-range register from a
   hand-written fault list must fail loudly here rather than corrupt
   the runtime.  The campaign engine catches this (and any other
   per-mutant exception) and classifies the mutant [Errored]. *)
let validate (f : Fault.t) =
  let bad what =
    invalid_arg
      (Printf.sprintf "Injector.inject: %s out of range in %s" what
         (Fault.describe f))
  in
  (match f.Fault.loc with
  | Fault.Gpr (r, b) | Fault.Fpr (r, b) ->
      if r < 0 || r > 31 then bad "register";
      if b < 0 || b > 31 then bad "bit"
  | Fault.Code (a, b) | Fault.Data (a, b) ->
      if a < 0 then bad "address";
      if b < 0 || b > 31 then bad "bit");
  match f.Fault.kind with
  | Fault.Transient n when n <= 0 -> bad "transient time"
  | _ -> ()

let instant (f : Fault.t) =
  match (f.Fault.kind, f.Fault.loc) with
  | Fault.Permanent, _ -> 0
  | Fault.Transient n, Fault.Code _ -> max 0 n
  | Fault.Transient n, (Fault.Gpr _ | Fault.Fpr _ | Fault.Data _) ->
      max 0 (n - 1)

let inject (m : Machine.t) (f : Fault.t) =
  validate f;
  let st = m.Machine.state in
  (* A transient register fault flips the bit once; a stuck-at one
     pins it at the flipped value. *)
  let reg file get set r bit =
    match f.Fault.kind with
    | Fault.Transient _ ->
        set st r (Bits.flip_bit bit (get st r));
        None
    | Fault.Permanent ->
        Some (Machine.pin m file r ~bit (Bits.bit bit (get st r) = 0))
  in
  match f.Fault.loc with
  | Fault.Code (addr, bit) ->
      flip_code m addr bit;
      None
  | Fault.Data (addr, bit) ->
      flip_data m addr bit;
      None
  | Fault.Gpr (r, bit) ->
      reg Arch_state.X Arch_state.get_reg Arch_state.set_reg r bit
  | Fault.Fpr (r, bit) ->
      reg Arch_state.F Arch_state.get_freg Arch_state.set_freg r bit

let unpin = Machine.unpin
