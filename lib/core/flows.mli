(** The ecosystem's four analysis flows behind one API.

    Everything a downstream user needs for the common cases: run a
    program on the virtual prototype, measure suite coverage, run a
    fault campaign, and run the full QTA WCET flow (static analysis +
    annotated co-simulation + dynamic measurement). *)

type word = S4e_bits.Bits.word

(** {1 Plain execution} *)

type run_result = {
  rr_stop : S4e_cpu.Machine.stop_reason;
  rr_instret : int;
  rr_cycles : int;
  rr_uart : string;
  rr_dev : string option;
      (** device-plane summary line when the run was armed with
          [~device_traffic:true]; [None] otherwise *)
  rr_recorder : S4e_obs.Flight_recorder.t option;
      (** the flight recorder armed by [?record], holding the run's
          last records; [None] otherwise *)
}

val run :
  ?config:S4e_cpu.Machine.config -> ?mem_tlb:bool -> ?superblocks:bool ->
  ?harts:int -> ?hart_slice:int -> ?device_traffic:bool -> ?record:int ->
  ?fuel:int -> S4e_asm.Program.t -> run_result
(** Default fuel: 10 million instructions.  [mem_tlb], [superblocks],
    [harts], and [hart_slice] override the corresponding config knobs
    (see {!S4e_cpu.Machine.config}) without the caller having to build
    a config record.  [device_traffic] (default false) arms
    {!arm_device_rig} before running, and fills [rr_dev] with a
    deterministic device/digest summary afterwards.  [record] arms a
    {!S4e_obs.Flight_recorder} of that capacity (returned in
    [rr_recorder]) — recording never changes the run's outcome. *)

val arm_device_rig : ?seed:int -> S4e_cpu.Machine.t -> unit
(** Host-arms a deterministic device-plane exercise pattern on an
    already-loaded machine: 32 posted vnet rx buffers plus a 256-packet
    generator burst (rate 128, burst 4, 128-byte payloads), and 4
    delayed 1 KiB DMA descriptors copying the torture data window.
    The traffic then runs concurrently with guest execution, stressing
    DMA invalidation, MEIP sampling, and the event wheel, while staying
    digest-identical across engines. *)

(** {1 Coverage} *)

val coverage_of_suite :
  ?config:S4e_cpu.Machine.config ->
  ?fuel:int ->
  ?jobs:int ->
  (string * S4e_asm.Program.t) list ->
  S4e_coverage.Report.t
(** Runs every program of the suite on a fresh machine and combines the
    reports.  With [jobs > 1] the programs run on a
    {!S4e_par.Par_pool}; reports are still combined in suite order, so
    the result is independent of [jobs]. *)

val run_suite :
  ?config:S4e_cpu.Machine.config ->
  ?mem_tlb:bool ->
  ?superblocks:bool ->
  ?device_traffic:bool ->
  ?fuel:int ->
  ?jobs:int ->
  (string * S4e_asm.Program.t) list ->
  (string * run_result) list
(** [run] over a whole suite, optionally domain-parallel; results keep
    suite order.  [mem_tlb], [superblocks] and [device_traffic] as in
    {!run}. *)

(** {1 WCET (the QTA flow)} *)

type wcet_result = {
  wr_static : int;  (** static program WCET bound *)
  wr_path : int;  (** WCET of the executed path (co-simulation) *)
  wr_dynamic : int;  (** measured dynamic cycles *)
  wr_report : S4e_wcet.Analysis.report;
  wr_stop : S4e_cpu.Machine.stop_reason;
}

val wcet_flow :
  ?config:S4e_cpu.Machine.config ->
  ?model:S4e_cpu.Timing_model.t ->
  ?annotations:(string * int) list ->
  ?fuel:int ->
  S4e_asm.Program.t ->
  (wcet_result, S4e_wcet.Analysis.error) result
(** For every terminating run, [wr_dynamic <= wr_path <= wr_static].
    The machine's timing model is forced to [model] so the three
    numbers are comparable. *)

(** {1 Fault campaigns} *)

type hang_budget =
  | Hang_fuel  (** per-mutant budget = [ff_fuel] *)
  | Hang_auto
      (** 3x the golden run's instruction count, clamped to
          [\[10_000, ff_fuel\]] — a mutant that runs 3x longer than the
          healthy program is declared hung without burning the rest of
          [ff_fuel] *)
  | Hang_insns of int  (** explicit per-mutant budget *)

type fault_flow_config = {
  ff_seed : int;
  ff_mutants : int;
  ff_targets : S4e_fault.Campaign.target list;
  ff_kinds : S4e_fault.Campaign.kind_choice list;
  ff_fuel : int;  (** fuel for the golden run *)
  ff_hang_budget : hang_budget;
      (** per-mutant instruction budget — the hang-detection timeout.
          Mutants that exhaust it are classified [Hung], including a
          faulty run that would eventually terminate with more fuel;
          tightening the budget trades a sharper masked/crashed split
          on such slow mutants for not simulating every hung mutant to
          the full [ff_fuel].  [Hang_fuel] keeps the exhaustive
          behaviour. *)
  ff_blind : bool;  (** ablation: ignore coverage guidance *)
  ff_engine : S4e_fault.Campaign.engine;  (** execution strategy *)
}

val default_fault_config : fault_flow_config
(** seed 1, 100 mutants, GPR+code+data, both kinds, fuel 1M,
    [Hang_fuel], guided, {!S4e_fault.Campaign.default_engine}. *)

val fault_config_of_flags :
  seed:int -> mutants:int -> blind:bool -> fuel:int option -> rerun:bool ->
  fault_flow_config
(** [s4e fault]'s flags as a campaign (a fleet job spec carries the
    same flags): [fuel] given means [Hang_fuel] on that budget,
    otherwise a 10M golden budget and [Hang_auto]; [rerun] selects
    {!S4e_fault.Campaign.rerun_engine}. *)

type fault_flow_result = {
  ff_summary : S4e_fault.Campaign.summary;
  ff_results : (S4e_fault.Fault.t * S4e_fault.Campaign.outcome) list;
      (** classified mutants only, in stable-index order: a cancelled
          run simply has fewer entries *)
  ff_indexed : (int * S4e_fault.Fault.t * S4e_fault.Campaign.outcome) list;
      (** the same results with their stable campaign indices — the
          input {!fault_triage} and {!S4e_fault.Campaign.triage}
          expect *)
  ff_golden : S4e_fault.Campaign.signature;
  ff_resumed : int;  (** mutants skipped because a resume journal
                         already classified them *)
  ff_complete : bool;
      (** every mutant in scope (the shard, or the whole list)
          classified — [false] after a cancellation *)
}

val fault_campaign :
  ?config:S4e_cpu.Machine.config ->
  ?jobs:int ->
  ?metrics:S4e_obs.Metrics.t ->
  ?trace:S4e_obs.Trace_events.t ->
  ?progress:bool ->
  ?journal:string ->
  ?resume:string ->
  ?shard:int * int ->
  ?on_journal_line:(string -> unit) ->
  ?cancelled:(unit -> bool) ->
  fault_flow_config ->
  S4e_asm.Program.t ->
  (fault_flow_result, string) result
(** {!fault_flow} plus crash tolerance:

    - [journal] records every classified mutant to a fresh JSONL
      journal ({!S4e_fault.Journal}) as the campaign runs.
    - [resume] reads a journal from an earlier (interrupted) run of the
      {e same} campaign — validated against the regenerated fault list,
      not trusted — skips everything it already classified, and appends
      the rest in place.  [ff_summary] afterwards is identical to an
      uninterrupted run's.  With both options and [journal <> resume],
      the known records are carried into the fresh [journal] file and
      only that file is written.
    - [shard (i, n)] restricts the run to
      {!S4e_fault.Campaign.shard}[ ~index:i ~count:n]; the journals of
      all [n] shards merge into the full campaign
      ([s4e merge-journals]).
    - [on_journal_line] streams the journal as it is produced: the
      header line once, then every {e freshly} classified mutant's
      record line (resumed records are not replayed — whoever supplied
      the resume journal has them).  Calls are serialized.  This is the
      fleet worker's feed: lines go to the orchestrator in batches
      while an on-disk [journal] (if any) is written as usual.
    - [cancelled] is polled between mutants; once true the campaign
      stops classifying, flushes the journal, and returns the partial
      (valid, resumable) result with [ff_complete = false].

    Errors are user errors (unreadable or mismatched journal, bad
    shard), never partial states: the journal on disk stays valid. *)

val fault_flow :
  ?config:S4e_cpu.Machine.config ->
  ?jobs:int ->
  ?metrics:S4e_obs.Metrics.t ->
  ?trace:S4e_obs.Trace_events.t ->
  ?progress:bool ->
  fault_flow_config ->
  S4e_asm.Program.t ->
  fault_flow_result
(** [jobs] (default 1) is the number of worker domains; outcomes are
    identical for every [jobs] value and unaffected by any telemetry
    option.
    [metrics]/[trace] are forwarded to {!S4e_fault.Campaign.run} (the
    flow adds [golden+coverage], [generate], and [campaign] spans
    around the campaign's own events).  [progress] (default off) prints
    a live [done/total  mutants/sec  eta] meter to stderr, updated at
    most four times a second. *)

val fault_triage :
  ?config:S4e_cpu.Machine.config ->
  ?sample:int ->
  ?tail:int ->
  fault_flow_config ->
  S4e_asm.Program.t ->
  fault_flow_result ->
  S4e_fault.Campaign.triage_record list
(** {!S4e_fault.Campaign.triage} over a flow result's divergent mutants
    ([ff_indexed]), re-using the campaign's own per-mutant hang budget
    as the lockstep fuel so Hung mutants are triaged over the instants
    the campaign actually simulated.  Pass the same [config] the
    campaign ran with. *)

(** {1 Hot-spot profiling} *)

type profile_result = {
  pf_stop : S4e_cpu.Machine.stop_reason;
  pf_machine : S4e_cpu.Machine.t;  (** for post-run inspection/disasm *)
  pf_profile : S4e_obs.Profile.t;
  pf_symbolize : S4e_obs.Profile.symbolizer;
      (** nearest-label-below-pc over the program's symbol table *)
}

val profile_flow :
  ?config:S4e_cpu.Machine.config ->
  ?fuel:int ->
  S4e_asm.Program.t ->
  profile_result
(** Runs the program with a {!S4e_obs.Profile} attached (the lowered
    fast path is preserved — profiling does not change execution) and
    returns the per-block attribution plus a symbolizer for reports. *)
