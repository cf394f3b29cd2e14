(** Translation-block cache — the QEMU TCG analogue.

    Fetch-and-decode is the dominant cost of a switch interpreter; this
    cache decodes a straight-line run of instructions (a translation
    block) once and replays it on subsequent visits.  Blocks end at
    control-flow instructions, at {!max_block_len}, or just before an
    undecodable word.

    Two accelerations sit on top of the decoded arrays:

    - {b Lowering}: the machine compiles a block's instructions into an
      array of closures ({!uop}) with dispatch, timing, and hazard
      metadata resolved at translate time (see [Lower]); the compiled
      form is cached on the entry.
    - {b Chaining}: each entry carries up to two direct links to
      successor entries, patched on first successor lookup ({!next}),
      so straight-line and loop code bypasses the hashtable.

    Stores into cached code invalidate at page granularity: only blocks
    overlapping the written word die, and every chain link pointing at
    a dead block is severed.  [fence.i] and {!flush} invalidate
    everything.  Ablated in experiments E9 and E13. *)

type word = S4e_bits.Bits.word

(** One lowered micro-op: the architectural step as a closure returning
    its cycle charge, with the hazard source/destination bitmasks and
    the block-control flags it needs hoisted next to it.  Built by
    [Lower.lower_entry]. *)
type uop = {
  u_pc : word;
  u_size : int;
  u_src_mask : int;
  u_load_dest_mask : int;
  u_wfi : bool;
  u_fence_i : bool;
  u_exec : unit -> int;
}

type attachment = ..
(** Open slot for a higher layer (the superblock trace engine) to hang
    per-entry data off the cache without a dependency cycle.  The
    dispatcher reads it with one tag match per block. *)

type attachment += No_attachment

type entry = {
  block_pc : word;
  instrs : (word * int * S4e_isa.Instr.t) array;
      (** (pc, size-in-bytes, instruction) triples *)
  total_size : int;  (** bytes covered *)
  mutable lowered : uop array option;
      (** lazily compiled µop form (instrumented or plain, per the
          machine's translation generation) *)
  mutable dead : bool;  (** invalidated; never executed or linked again *)
  mutable link_a : entry option;
  mutable link_a_pc : word;
  mutable link_b : entry option;
  mutable link_b_pc : word;
  mutable link_a_hits : int;  (** traversals of link a ({!next} chain hits) *)
  mutable link_b_hits : int;  (** traversals of link b *)
  mutable incoming : entry list;
  mutable exec_count : int;
      (** dispatches of this block; the superblock promotion driver's
          heat counter *)
  mutable attach : attachment;  (** reset to {!No_attachment} on kill *)
}

type t

val max_block_len : int

val create :
  decode32:(word -> S4e_isa.Instr.t option) ->
  decode16:(int -> S4e_isa.Instr.t option) option ->
  fetch32:(word -> word) ->
  fetch16:(word -> int) ->
  unit ->
  t
(** [decode16 = None] disables the compressed instruction set. *)

val lookup : t -> word -> entry
(** [lookup t pc] returns the cached block at [pc], translating it on a
    miss.  An entry with an empty [instrs] array means the very first
    word at [pc] does not decode (the machine raises an illegal
    instruction trap). *)

val next : t -> entry option -> word -> entry
(** [next t prev pc] is [lookup t pc] accelerated by block chaining:
    if [prev] (the block just executed) already links to [pc] the
    hashtable is bypassed; otherwise the link is patched after the
    lookup.  Passing [None] — or a [prev] invalidated mid-execution —
    degrades to a plain lookup. *)

val notify_store : t -> word -> unit
(** Invalidate the blocks overlapping the (at most 4-byte) store at
    [addr], severing chain links into them.  Blocks elsewhere stay
    cached. *)

val notify_range : t -> word -> int -> unit
(** [notify_range t addr len] — {!notify_store} for an arbitrary-length
    written range (DMA bursts): invalidates exactly the blocks
    overlapping [\[addr, addr+len)]. *)

val flush : t -> unit

val drop_lowered : t -> unit
(** Discards every cached block's µops, keeping its decoded
    instructions, chain links and attachments: the next dispatch
    re-lowers it.  The machine's translation-generation switch (µops
    with or without instrumentation). *)

val set_invalidate_hooks :
  t -> on_kill:(entry -> unit) -> on_flush:(unit -> unit) -> unit
(** Invalidation callbacks for attached trace state.  [on_kill] fires
    once per individually killed entry, before its links and
    [attach] field are cleared (so the attachment is still readable);
    [on_flush] fires once at the start of a full {!flush}. *)

val hot_edges : ?min_hits:int -> t -> (word * word * int) list
(** Live chain edges as [(src_pc, dst_pc, traversals)], hottest first
    (ties ordered by pc for determinism).  Edges colder than
    [min_hits] (default 1) are dropped. *)

type stats = {
  st_blocks : int;  (** blocks currently cached *)
  st_hits : int;  (** hashtable lookups answered from the cache *)
  st_misses : int;  (** lookups that translated a new block *)
  st_chain_hits : int;
      (** successor lookups answered by a direct link — these bypass
          the hashtable entirely and are {e not} included in
          [st_hits] *)
  st_invalidations : int;
      (** blocks individually killed by {!notify_store} (flushes not
          counted) *)
}

val stats : t -> stats
