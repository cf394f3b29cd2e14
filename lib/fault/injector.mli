(** Applying a fault to a live machine.

    Every fault is one bit flip applied at an {!instant}; a stuck-at
    register fault also leaves a {!pin} that holds the bit at its
    flipped value.  The injector only edits state and sets pins; it
    registers no hooks, so a mutant runs on the same translated code
    as the golden run.  A runner brings the machine to the instant (by
    running the prefix or by restoring a snapshot of the golden run),
    calls {!inject}, and runs the rest; the campaign's runners, its
    engine and triage all follow that one sequence.  Code and data
    flips touch memory directly (a flipped code bit is a binary
    mutation, XEMU-style) and, like a store, invalidate the
    translations of the word they land in; register flips edit the
    architectural state.

    The instant is chosen so that a flip landing there is what a hook
    firing before instruction [n] of a [Transient n] would produce,
    except on a word that is both code and data when instruction [n]
    uses it in the other role.  If instruction [n] of a code transient
    loads or stores the flipped word, the load reads the word before
    the flip and the flip lands on top of the stored value, where a
    hook would have flipped the word first.  If instruction [n] of a
    data transient is fetched from the flipped word, it executes the
    flipped encoding, where under a hook it had already been
    decoded. *)

val instant : Fault.t -> int
(** Instructions the machine runs before the flip lands, counted in
    [Machine.run] fuel (retired instructions, plus fetch traps):
    - [n - 1] for a register or data [Transient n], so instruction [n]
      reads the flipped value;
    - [n] for a code [Transient n]: instruction [n] executes as
      decoded, and every later fetch of the word sees the flip;
    - [0] for a [Permanent] fault. *)

type pin

val inject : S4e_cpu.Machine.t -> Fault.t -> pin option
(** Applies the flip now.  For a stuck-at ([Permanent]) GPR or FPR
    fault the flip is a pin ({!S4e_cpu.Machine.pin}) on the current
    hart, which is returned: the bit is held at the opposite of its
    current value, re-asserted by every write to the register (the
    translated code does it in the instructions that write that
    register only) and by every snapshot restore.  Each instruction
    therefore reads the value a hook re-asserting the bit before every
    instruction would give it.  Every other fault is done once
    injected.
    @raise Invalid_argument on a malformed fault (register or bit out
    of range, negative address, non-positive transient time) — the
    register paths use unchecked indexing, so this is the only line of
    defense for hand-written fault lists. *)

val unpin : S4e_cpu.Machine.t -> pin -> unit
(** Releases a pin; the register keeps its current value (restore a
    snapshot or discard the machine to undo the flip). *)
