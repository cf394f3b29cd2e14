(** Hot-spot profiler aggregate: per-translation-block execution,
    retired-instruction, and cycle attribution.

    The machine feeds {!note} once per dispatched block with the
    instret/cycle deltas observed across the block's execution — exact
    because the block executor drains its batched counters at block
    exits.  The profiler itself is a plain hashtable and mutable
    fields: it belongs to exactly one machine, and a run without a
    profiler attached pays only one pointer test per block dispatch.

    Symbolization is a callback ([pc -> (symbol, offset) option]) so
    this library stays below the assembler/CFG layer; [Flows] builds it
    from the program's symbol table. *)

type block = {
  bl_pc : int;
  mutable bl_bytes : int;  (** bytes the block spans *)
  mutable bl_execs : int;  (** times dispatched *)
  mutable bl_instrs : int;  (** instructions retired inside it *)
  mutable bl_cycles : int;  (** cycles charged inside it *)
}

type t

val create : unit -> t

val note : t -> pc:int -> bytes:int -> instrs:int -> cycles:int -> unit
(** One block execution: [instrs]/[cycles] are the deltas across it. *)

val blocks : t -> block list
val total_execs : t -> int
val total_instrs : t -> int
val total_cycles : t -> int

val ranked : t -> block list
(** By cycles, descending (ties by pc, so the order is deterministic). *)

type symbolizer = int -> (string * int) option
(** [symbolize pc] = [Some (symbol, byte offset into it)]. *)

val symbolizer_of_symbols : (string * int) list -> symbolizer
(** Nearest-symbol-below-pc over a (name, address) table. *)

val sym_label : symbolizer -> int -> string
(** ["name"], ["name+0x1c"], or ["0x%08x"] when unknown.  A symbol that
    resolves with an empty name (stripped / anonymous entries) falls
    back to ["0x<base>+0x<off>"] instead of an empty label. *)

type fn_row = {
  f_name : string;
  f_blocks : int;
  f_instrs : int;
  f_cycles : int;
  f_share : float;  (** of total cycles *)
}

val functions : symbolize:symbolizer -> t -> fn_row list
(** Blocks aggregated by containing symbol, ranked by cycles. *)

val pp_report :
  ?top:int -> ?symbolize:symbolizer -> Format.formatter -> t -> unit
(** The ranked hot-block table (top [top], default 10) followed by the
    hot-function table when a symbolizer is given. *)
