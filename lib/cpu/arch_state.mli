(** Architectural state of one RV32 hart (machine mode only).

    GPRs and FPRs are exposed through accessors that maintain the
    invariants ([x0] reads zero, all values canonical 32-bit words).

    The hart also carries its stuck-at {e pins}: register bits held at a
    fixed value ({!pin}).  The accessors do not apply them; every
    register writer does, by calling {!hold_reg}/{!hold_freg} after a
    write to a pinned register (the executor and the translated code
    decide which writes need it when they are built).  Change pins
    through [Machine.pin], which also retranslates the hart's code. *)

type word = S4e_bits.Bits.word

type t = {
  mutable hartid : int;
      (** Value of the [mhartid] CSR.  Structural (assigned at machine
          construction), untouched by {!reset} and {!restore}. *)
  mutable misa : word;
      (** Value of the [misa] CSR; the machine derives it from its ISA
          configuration so restricted-ISA machines advertise accurately.
          Structural, like [hartid]. *)
  regs : word array;  (** 32 GPRs; [regs.(0)] is kept at 0 *)
  fregs : word array;  (** 32 FPRs as IEEE-754 single bit patterns *)
  mutable pc : word;
  mutable mstatus : word;
  mutable mie : word;
  mutable mip : word;
  mutable mtvec : word;
  mutable mscratch : word;
  mutable mepc : word;
  mutable mcause : word;
  mutable mtval : word;
  mutable fcsr : word;
  mutable cycle : int;  (** 64-bit cycle counter in a native int *)
  mutable instret : int;
  mutable time_source : unit -> int;
      (** Reads platform time for the [time] CSR; the machine points
          this at the CLINT. *)
  mutable reservation : word option;
      (** LR/SC reservation address (A extension).  Cleared by [SC],
          reset, and trap/interrupt entry; another hart's store to the
          reserved word also breaks it (machine coherence hook). *)
  pin_and : word array;
      (** stuck-at-0 pins: slot [r] for GPR [r], [32 + r] for FPR [r];
          a held register is [(v land pin_and) lor pin_or].  Structural,
          like [hartid]; use {!pin}/{!unpin}. *)
  pin_or : word array;  (** stuck-at-1 pins, same slots *)
  mutable pinned_x : int;  (** bit [r] set: GPR [r] has a pin *)
  mutable pinned_f : int;  (** bit [r] set: FPR [r] has a pin *)
}

val create : ?pc:word -> ?hartid:int -> unit -> t
val reset : t -> pc:word -> unit
(** Zeroes the registers and CSRs, then holds the registers to the
    pins. *)

val get_reg : t -> S4e_isa.Reg.t -> word

val set_reg : t -> S4e_isa.Reg.t -> word -> unit
(** Writes to [x0] are discarded. *)

val get_freg : t -> S4e_isa.Reg.t -> word
val set_freg : t -> S4e_isa.Reg.t -> word -> unit

(** {1 Stuck-at pins} *)

type file = X | F  (** the integer or the floating-point register file *)

val pin : t -> file -> S4e_isa.Reg.t -> bit:int -> bool -> unit
(** [pin t file r ~bit v] holds [bit] of register [r] at [v] and
    asserts it now.  A pin on [x0] is ignored ([x0] stays zero). *)

val unpin : t -> file -> S4e_isa.Reg.t -> bit:int -> unit
(** Releases the bit; the register keeps its current value. *)

val is_pinned : t -> file -> S4e_isa.Reg.t -> bool

val hold_reg : t -> S4e_isa.Reg.t -> unit
(** Re-asserts GPR [r]'s pins (a no-op on an unpinned register). *)

val hold_freg : t -> S4e_isa.Reg.t -> unit

val hold_all : t -> unit
(** Re-asserts every pin.  {!reset} and {!restore} end with it. *)

(** {1 mstatus fields} *)

val mie_bit : t -> bool
val set_mie_bit : t -> bool -> unit
val mpie_bit : t -> bool
val set_mpie_bit : t -> bool -> unit

(** {1 CSR file}

    [csr_read]/[csr_write] return [None] for unimplemented addresses;
    the executor maps [None] to an illegal-instruction trap.
    [csr_write] to a read-only address also yields [None]. *)

val csr_read : t -> S4e_isa.Csr.t -> word option
val csr_write : t -> S4e_isa.Csr.t -> word -> unit option

val copy : t -> t
(** Deep copy (snapshot for fault campaigns and differential runs),
    pins included. *)

val restore : t -> t -> unit
(** [restore dst src] copies every architectural field of [src] into
    [dst] in place (including the LR/SC reservation, so forked campaign
    mutants resume with the same reservation the golden run held).
    [dst.time_source], [dst.hartid], [dst.misa] and [dst]'s pins are
    deliberately left untouched so a machine's CLINT wiring, hart
    identity and stuck-at faults survive the rewind; the restored
    registers are held to [dst]'s pins. *)
