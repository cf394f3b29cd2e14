(** A minimal JSON value type with a strict parser and printer — the
    repository's only JSON codec.

    The repository deliberately carries no third-party JSON dependency,
    so this module provides the small subset its formats need: full
    parse/print round-tripping of objects, arrays, strings (with
    escapes), integers, floats, booleans and null.  {!escape} is the one
    JSON string escaper: the campaign journal, triage JSONL, trace
    events, the metrics export, the fleet protocol and the bench rows
    all go through it.  Unicode escapes are passed through byte-wise
    ([\uXXXX] decodes to the low byte), so any byte string — UTF-8 or
    not — round-trips through {!to_string} and {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error).  Arrays and objects nest at
    most 64 deep, far above anything the repository's formats produce;
    deeper input is an [Error], so a hostile body is rejected at its
    65th bracket instead of driving the recursive descent through it. *)

val to_string : t -> string
(** Compact single-line rendering; integers print without a decimal
    point, so [parse (to_string v) = Ok v] for values built from the
    constructors above. *)

val escape : string -> string
(** The string-escaping used by {!to_string}, without the quotes. *)

(** {1 Accessors}

    All return [None] on a shape mismatch, so protocol handlers can
    validate with [Option] pipelines instead of exceptions. *)

val mem : string -> t -> t option
(** [mem key (Obj _)] — field lookup; [None] on non-objects. *)

val str : t -> string option
val int : t -> int option
(** Accepts [Int] and integral [Float]. *)

val num : t -> float option
(** Accepts [Int] and [Float]. *)

val bool : t -> bool option
val list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option
