(** Append-only campaign journals: one JSONL file per campaign run.

    The first line is a header binding the journal to its campaign
    (fault-list seed, mutant count, shard, and an MD5 of the program
    image); every following line records one classified mutant.  The
    writer appends records as the engine classifies them and fsyncs in
    small batches, so after a crash or SIGINT at most a batch of
    classifications needs re-running — {!append_to} reads the survivors
    back, drops a torn final line, and resumes appending in place.

    Journals written by shards of the same campaign ([--shard i/n])
    {!merge} into one record set, which must be conflict-free: the
    engine is deterministic per mutant, so two journals disagreeing on
    an outcome means they were not the same campaign.

    See [docs/CAMPAIGNS.md] for the on-disk format. *)

type header = {
  j_seed : int;  (** fault-list generation seed *)
  j_total : int;  (** mutants in the {e full} campaign, across shards *)
  j_shard : int * int;  (** [(index, count)]; [(0, 1)] = unsharded *)
  j_program : string;  (** MD5 (hex) of the serialized program image *)
}

type record = {
  r_index : int;  (** stable index in the full fault list *)
  r_fault : Fault.t;
  r_outcome : Campaign.outcome;
}

val header_of :
  ?shard:int * int -> seed:int -> total:int -> S4e_asm.Program.t -> header

val expected_count : header -> int
(** Mutants this journal's shard is responsible for. *)

val is_complete : header -> record list -> bool

(** {1 Line format}

    One JSON object per line, built and parsed with {!S4e_obs.Json} and
    owned by this module alone: the fleet server ingests streamed
    lines, stores them as {!record}s and re-emits them through these
    functions, so the bytes on disk, on the wire and in a resume
    payload are one format.  Keys come in a fixed order with no
    whitespace, so the output is canonical; the parsers accept any
    valid JSON object with the right fields. *)

val header_line : header -> string
(** One line, no trailing newline — exactly what {!create} writes:
    [{"s4e_journal":1,"seed":S,"total":T,"shard":"I/N","program":"MD5"}]. *)

val record_line : record -> string
(** [{"i":I,"fault":F,"outcome":O}], with an ["error"] field last for
    [Errored] outcomes. *)

val parse_header : string -> (header, string) result
(** Inverse of {!header_line}; rejects lines without the
    [s4e_journal] version field. *)

val parse_record : string -> (record, string) result
(** Inverse of {!record_line}; rejects a negative index, an
    unparseable fault and an unknown outcome. *)

type line = Header of header | Record of record

val parse_line : string -> (line, string) result
(** Either kind of line, told apart by the [s4e_journal] field. *)

(** {1 Writing} *)

type writer

val create :
  ?sink:S4e_obs.Trace_events.t -> path:string -> header ->
  (writer, string) result
(** Truncates [path] and writes the header (synced immediately). *)

val append_to :
  ?sink:S4e_obs.Trace_events.t -> path:string -> header ->
  (writer * record list, string) result
(** Reopens an existing journal for resume: validates that its header
    matches [header] exactly, returns the records already present
    (deduplicated by index, sorted), and positions the writer after the
    last {e complete} line — a torn final line from the interrupted run
    is overwritten. *)

val of_lines : header -> string list -> (record list, string) result
(** The records of a journal held in memory as its lines, header first —
    a fleet grant's resume payload — checked like {!append_to}: the
    header must match [header] exactly, every line must parse, and the
    records come back deduplicated by index and sorted.  Nothing is
    opened for writing. *)

val write : writer -> record -> unit
(** Appends one record.  Thread-safe; fsyncs every 64 records (each
    flush wrapped in a [journal-flush] trace span when [sink] is
    given). *)

val flush : writer -> unit
(** Flush and fsync now — call from a signal-triggered shutdown path. *)

val close : writer -> unit

(** {1 Reading} *)

val read : string -> (header * record list, string) result
(** Records come back deduplicated by index (last write wins) and
    sorted.  A torn final line is dropped silently; a malformed
    {e terminated} line is corruption and an error. *)

(** {1 Merging}

    The one merge rule, shared by {!merge} and the fleet server's live
    merge: headers are compatible when seed, total and program agree
    (shards differ); a record seen twice is a duplicate when fault and
    outcome class agree ([Errored] messages may differ); anything else
    is a conflict — the engine is deterministic per mutant. *)

val compatible : header -> header -> (unit, string) result

type merged = Fresh | Duplicate | Conflict of string

val merge_record : (int, record) Hashtbl.t -> record -> merged
(** Adds a record to a table keyed by mutant index; [Fresh] when it
    was not there.  [Duplicate] and [Conflict] leave the table as it
    was. *)

val merge :
  (header * record list) list ->
  (header * record list, string) result
(** Combines shard journals of one campaign into a single unsharded
    record set, or the first incompatibility or conflict. *)
