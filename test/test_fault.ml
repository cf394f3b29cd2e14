(* Fault injection tests: injector mechanics, campaign classification,
   coverage-guided generation, and determinism. *)

module Machine = S4e_cpu.Machine
module Fault = S4e_fault.Fault
module Injector = S4e_fault.Injector
module Campaign = S4e_fault.Campaign

let prop ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let checksum_src = {|
_start:
  li   a0, 0
  li   a1, 1
  li   a2, 20
l:
  add  a0, a0, a1
  addi a1, a1, 1
  blt  a1, a2, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

let program () = S4e_asm.Assembler.assemble_exn checksum_src

let test_golden_signature () =
  let sg, cov = Campaign.golden ~fuel:10_000 (program ()) in
  Alcotest.(check (option int)) "exit is sum 1..19" (Some 190)
    sg.Campaign.sig_exit;
  Alcotest.(check bool) "instret recorded" true (sg.Campaign.sig_instret > 30);
  Alcotest.(check bool) "coverage collected" true
    (S4e_coverage.Report.executed_count cov > 0)

let test_code_flip_changes_memory () =
  let m = Machine.create () in
  S4e_asm.Program.load_machine (program ()) m;
  let before = S4e_mem.Sparse_mem.read32 (S4e_mem.Bus.ram m.Machine.bus) 0x8000_0000 in
  let _ = Injector.arm m { Fault.loc = Fault.Code (0x8000_0000, 5); kind = Fault.Permanent } in
  let after = S4e_mem.Sparse_mem.read32 (S4e_mem.Bus.ram m.Machine.bus) 0x8000_0000 in
  Alcotest.(check int) "exactly one bit flipped" (1 lsl 5) (before lxor after)

let test_transient_gpr_flip () =
  (* flip bit 0 of the accumulator a0 exactly once -> off-by-one sdc *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let fault =
    { Fault.loc = Fault.Gpr (10, 0); kind = Fault.Transient 20 }
  in
  let outcome = Campaign.run_one ~fuel:10_000 p ~golden fault in
  Alcotest.(check string) "classified sdc" "sdc" (Campaign.outcome_name outcome)

let test_x0_fault_masked () =
  (* x0 is hardwired: injecting into it must always be masked *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  List.iter
    (fun kind ->
      let outcome =
        Campaign.run_one ~fuel:10_000 p ~golden
          { Fault.loc = Fault.Gpr (0, 7); kind }
      in
      Alcotest.(check string) "masked" "masked" (Campaign.outcome_name outcome))
    [ Fault.Permanent; Fault.Transient 5 ]

let test_unused_register_masked () =
  (* s5 is never touched by the program: any fault there is masked *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Gpr (21, 13); kind = Fault.Permanent }
  in
  Alcotest.(check string) "masked" "masked" (Campaign.outcome_name outcome)

let test_opcode_corruption_crashes () =
  (* flipping a high opcode bit of the first instruction usually makes
     an illegal/strange instruction; flip into the unused encoding *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  (* turn addi (0x13) into an undefined opcode by flipping bit 2 -> 0x17?
     that is auipc.  Use bit 6 -> 0x53 = OP-FP funct7=0 rm... decodes.
     Flip bit 3: 0x13 -> 0x1B which is RV64 OP-IMM-32: undecodable. *)
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Code (0x8000_0000, 3); kind = Fault.Permanent }
  in
  Alcotest.(check string) "crashed" "crashed" (Campaign.outcome_name outcome)

let test_branch_corruption_can_hang () =
  (* flip the branch polarity bit: bne <-> beq style changes can spin *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   a0, 0
  li   a1, 5
l:
  addi a0, a0, 1
  bne  a0, a1, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  (* corrupt the bound register so the equality is never met *)
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Gpr (11, 31); kind = Fault.Permanent }
  in
  Alcotest.(check string) "hung" "hung" (Campaign.outcome_name outcome)

let test_unexecuted_code_fault_masked () =
  (* a flip in code past the exit store is never fetched *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   a0, 9
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
dead:
  addi a0, a0, 1
|}
  in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let dead = Option.get (S4e_asm.Program.symbol p "dead") in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Code (dead, 11); kind = Fault.Permanent }
  in
  Alcotest.(check string) "dead code fault masked" "masked"
    (Campaign.outcome_name outcome)

let test_untouched_data_fault_masked () =
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Data (0x8005_0000, 3); kind = Fault.Permanent }
  in
  Alcotest.(check string) "untouched data fault masked" "masked"
    (Campaign.outcome_name outcome)

let test_late_transient_masked () =
  (* a transient scheduled after the program exits never fires *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Gpr (10, 0);
        kind = Fault.Transient (golden.Campaign.sig_instret + 100) }
  in
  Alcotest.(check string) "late transient masked" "masked"
    (Campaign.outcome_name outcome)

let test_generation_determinism () =
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let gen () =
    Campaign.generate ~seed:99 ~n:50 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  Alcotest.(check bool) "same seed, same faults" true (gen () = gen ());
  let other =
    Campaign.generate ~seed:100 ~n:50 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  Alcotest.(check bool) "different seed differs" true (gen () <> other)

let test_guided_sites_are_covered () =
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let faults =
    Campaign.generate ~seed:5 ~n:100 ~targets:[ `Gpr; `Code ]
      ~kinds:[ `Permanent ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  List.iter
    (fun f ->
      match f.Fault.loc with
      | Fault.Gpr (r, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "reg %d accessed" r)
            true
            (cov.S4e_coverage.Report.gpr_read.(r)
            || cov.S4e_coverage.Report.gpr_written.(r))
      | Fault.Code (a, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "pc 0x%08x executed" a)
            true
            (Hashtbl.mem cov.S4e_coverage.Report.executed_pcs a)
      | Fault.Fpr _ | Fault.Data _ -> Alcotest.fail "unexpected target")
    faults

let test_campaign_summary_adds_up () =
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let faults =
    Campaign.generate ~seed:3 ~n:40 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  let results = Campaign.run ~fuel:10_000 p ~golden faults in
  let s = Campaign.summarize results in
  Alcotest.(check int) "total" 40 s.Campaign.total;
  Alcotest.(check int) "classes partition" s.Campaign.total
    (s.Campaign.masked + s.Campaign.sdc + s.Campaign.crashed + s.Campaign.hung
    + s.Campaign.errors)

let campaign_determinism =
  prop ~count:5 "campaign outcome deterministic" (QCheck.int_bound 1000)
    (fun seed ->
      let p = program () in
      let golden, cov = Campaign.golden ~fuel:10_000 p in
      let faults =
        Campaign.generate ~seed ~n:15 ~targets:[ `Gpr; `Code; `Data ]
          ~kinds:[ `Permanent; `Transient ] ~coverage:cov
          ~golden_instret:golden.Campaign.sig_instret
      in
      let r1 = Campaign.run ~fuel:10_000 p ~golden faults in
      let r2 = Campaign.run ~fuel:10_000 p ~golden faults in
      r1 = r2)

let test_generation_regression () =
  (* Exact expected fault list for a pinned seed: fails if pool
     derivation, rng consumption order, or site sorting ever changes
     silently.  Regenerate with Campaign.generate ~seed:42 ~n:6 on the
     checksum program if the change is intentional. *)
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  Alcotest.(check int) "golden instret" 63 golden.Campaign.sig_instret;
  let faults =
    Campaign.generate ~seed:42 ~n:6 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  let expected =
    [ { Fault.loc = Fault.Gpr (10, 24); kind = Fault.Permanent };
      { Fault.loc = Fault.Gpr (10, 31); kind = Fault.Permanent };
      { Fault.loc = Fault.Gpr (6, 2); kind = Fault.Transient 43 };
      { Fault.loc = Fault.Gpr (12, 27); kind = Fault.Transient 37 };
      { Fault.loc = Fault.Gpr (10, 19); kind = Fault.Permanent };
      { Fault.loc = Fault.Gpr (6, 11); kind = Fault.Transient 15 } ]
  in
  Alcotest.(check bool) "exact fault list" true (faults = expected)

(* A longer workload than the checksum loop so engine shortcuts
   (forking, early exit) have room to act. *)
let engine_src = {|
_start:
  li   s0, 0
  li   s1, 0
  li   s2, 120
  li   s3, 0x80001000
outer:
  li   t0, 0
  li   t1, 13
inner:
  mul  t2, t0, s1
  add  s0, s0, t2
  xor  s0, s0, t0
  sw   s0, 0(s3)
  lw   t3, 0(s3)
  add  s0, s0, t3
  addi t0, t0, 1
  blt  t0, t1, inner
  addi s1, s1, 1
  blt  s1, s2, outer
  andi a0, s0, 0xff
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

let engine_campaign ?config ?engine ?jobs () =
  let p = S4e_asm.Assembler.assemble_exn engine_src in
  let golden, cov = Campaign.golden ?config ~fuel:100_000 p in
  let faults =
    Campaign.generate ~seed:11 ~n:200 ~targets:[ `Gpr; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  Campaign.run ?config ?engine ?jobs ~fuel:100_000 p ~golden faults

let test_jobs_deterministic () =
  (* acceptance: a 200-fault campaign at -j 4 is byte-identical to the
     sequential run, including fault order *)
  let seq = engine_campaign ~jobs:1 () in
  let par = engine_campaign ~jobs:4 () in
  Alcotest.(check bool) "jobs=4 identical to jobs=1" true (seq = par);
  Alcotest.(check bool) "summaries equal" true
    (Campaign.summarize seq = Campaign.summarize par)

let test_engine_matches_rerun () =
  (* With per-instruction decode (no TB cache) the engine's snapshot
     seams cannot shift translation-block boundaries, so fork + early
     exit must reproduce the naive rerun classification exactly. *)
  let config =
    { Machine.default_config with Machine.use_tb_cache = false }
  in
  let fast = engine_campaign ~config ~engine:Campaign.default_engine () in
  let naive = engine_campaign ~config ~engine:Campaign.rerun_engine () in
  Alcotest.(check bool) "engine = naive rerun" true (fast = naive);
  let s = Campaign.summarize fast in
  Alcotest.(check int) "all faults classified" 200 s.Campaign.total

let test_engine_axes_agree () =
  (* every axis combination classifies identically on the default
     config for register/data faults *)
  let base = engine_campaign ~engine:Campaign.rerun_engine () in
  List.iter
    (fun engine ->
      Alcotest.(check bool) "axis combination agrees" true
        (engine_campaign ~engine () = base))
    [ Campaign.default_engine;
      { Campaign.default_engine with Campaign.eng_fork = false };
      { Campaign.default_engine with Campaign.eng_checkpoint = 0 };
      { Campaign.default_engine with Campaign.eng_checkpoint = 256 } ]

let test_midblock_code_flip_visibility () =
  (* A transient code flip landing just AHEAD of the pc inside the
     currently-executing translation block: every path must segment the
     run at the injection instant, so the next fetch decodes the
     flipped word.  A continuous hooked run would ride the stale
     pre-decoded block to its end and miss the flip entirely —
     classifying Masked where the engine's forked suffix (which
     resumes, and re-decodes, at the injection point) sees Sdc. *)
  let src = {|
_start:
  li   t2, 5
  li   a0, 0
warm:
  addi t2, t2, -1
  bnez t2, warm
  addi a0, a0, 1
  addi a0, a0, 1
  addi a0, a0, 1
  addi a0, a0, 1
  addi a0, a0, 1
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  Alcotest.(check (option int)) "golden exit" (Some 5) golden.Campaign.sig_exit;
  (* straight-line block entered at instret 13 (after the warm loop);
     flip bit 21 of the addi at 0x8000001c (imm 1 -> 3, instret 16)
     at instret 14 — two slots ahead of the pc, same block *)
  let fault =
    { Fault.loc = Fault.Code (0x8000001c, 21); kind = Fault.Transient 14 }
  in
  Alcotest.(check string) "run_one sees the flip" "sdc"
    (Campaign.outcome_name (Campaign.run_one ~fuel:10_000 p ~golden fault));
  List.iter
    (fun (name, engine) ->
      match Campaign.run ~engine ~fuel:10_000 p ~golden [ fault ] with
      | [ (_, o) ] ->
          Alcotest.(check string) (name ^ " sees the flip") "sdc"
            (Campaign.outcome_name o)
      | _ -> Alcotest.fail (name ^ ": expected one classified mutant"))
    [ ("engine", Campaign.default_engine); ("rerun", Campaign.rerun_engine) ]

(* ---------------- hardening: errors, journals, shards ---------------- *)

(* The golden checkpoint trace is read from inside an insn hook in the
   middle of translation blocks, so it pins the rule that instrumented
   µops drain batched time before hooks fire: every checkpoint's
   fingerprint, digest, cycle and mtime and the time-observation
   verdict must equal the single-step reference's. *)
let test_collect_trace_engine_independent () =
  List.iter
    (fun name ->
      let p =
        S4e_asm.Assembler.assemble_exn
          (Perfbench.Programs.find ~seed:1 name).Perfbench.Programs.source
      in
      let fuel = 2_000_000 in
      let golden, _ = Campaign.golden ~fuel p in
      let trace config =
        Campaign.collect_trace ~config ~fuel ~interval:97 ~golden p
      in
      let table tr =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tr.Campaign.tr_digests []
        |> List.sort compare
      in
      let tb = trace Machine.default_config in
      let ss =
        trace { Machine.default_config with Machine.use_tb_cache = false }
      in
      Alcotest.(check bool)
        (name ^ ": checkpoints recorded") true
        (Hashtbl.length tb.Campaign.tr_digests > 10);
      Alcotest.(check bool)
        (name ^ ": digest table") true (table tb = table ss);
      Alcotest.(check bool)
        (name ^ ": tr_strict") ss.Campaign.tr_strict tb.Campaign.tr_strict;
      Alcotest.(check string)
        (name ^ ": outcome")
        (Campaign.outcome_name ss.Campaign.tr_outcome)
        (Campaign.outcome_name tb.Campaign.tr_outcome))
    [ "dhrystone"; "stream" ]

module Journal = S4e_fault.Journal
module Flows = S4e_core.Flows

let gen_faults ~seed ~n _p golden cov =
  Campaign.generate ~seed ~n ~targets:[ `Gpr; `Code; `Data ]
    ~kinds:[ `Permanent; `Transient ] ~coverage:cov
    ~golden_instret:golden.Campaign.sig_instret

let fault_string_roundtrip =
  prop ~count:100 "fault to_string/of_string roundtrip"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = program () in
      let golden, cov = Campaign.golden ~fuel:10_000 p in
      List.for_all
        (fun f -> Fault.of_string (Fault.to_string f) = Ok f)
        (gen_faults ~seed ~n:20 p golden cov))

let test_malformed_fault_errored () =
  (* A fault the injector rejects must not abort the campaign: the
     mutant is classified Errored (after one retry), the rest of the
     list classifies normally, and the counters record it. *)
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let good = gen_faults ~seed:7 ~n:4 p golden cov in
  let bad = { Fault.loc = Fault.Gpr (33, 0); kind = Fault.Permanent } in
  let faults = List.concat [ [ List.hd good ]; [ bad ]; List.tl good ] in
  let reg = S4e_obs.Metrics.create () in
  let results = Campaign.run ~metrics:reg ~fuel:10_000 p ~golden faults in
  Alcotest.(check int) "all classified" 5 (List.length results);
  let outcomes = List.map (fun (_, o) -> Campaign.outcome_name o) results in
  Alcotest.(check string) "bad mutant errored" "errored" (List.nth outcomes 1);
  List.iteri
    (fun i o ->
      if i <> 1 then
        Alcotest.(check bool) "good mutants unaffected" false (o = "errored"))
    outcomes;
  (match List.nth results 1 with
  | _, Campaign.Errored msg ->
      Alcotest.(check bool) "exception text kept" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Errored");
  let v name = S4e_obs.Metrics.value (S4e_obs.Metrics.counter reg name) in
  Alcotest.(check int) "campaign.errors" 1 (v "campaign.errors");
  Alcotest.(check int) "campaign.retries" 1 (v "campaign.retries");
  let s = Campaign.summarize results in
  Alcotest.(check int) "summary counts it" 1 s.Campaign.errors

let test_wallclock_timeout () =
  (* With an (absurdly) tiny wall-clock budget every mutant hits its
     deadline before its first burst and classifies like fuel
     exhaustion. *)
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let faults = gen_faults ~seed:9 ~n:8 p golden cov in
  let engine =
    { Campaign.default_engine with Campaign.eng_timeout_s = 1e-9 }
  in
  let reg = S4e_obs.Metrics.create () in
  let results = Campaign.run ~engine ~metrics:reg ~fuel:10_000 p ~golden faults in
  List.iter
    (fun (_, o) ->
      Alcotest.(check string) "deadline -> hung" "hung"
        (Campaign.outcome_name o))
    results;
  Alcotest.(check bool) "timeouts counted" true
    (S4e_obs.Metrics.value (S4e_obs.Metrics.counter reg "campaign.timeouts")
    >= 8)

let shard_completeness =
  prop ~count:50 "shards partition the fault list"
    QCheck.(pair (int_range 1 7) (int_range 0 40))
    (fun (count, n) ->
      let ifaults =
        List.init n (fun i ->
            (i, { Fault.loc = Fault.Gpr (i mod 32, 0); kind = Fault.Permanent }))
      in
      let shards =
        List.init count (fun index -> Campaign.shard ~index ~count ifaults)
      in
      let union = List.concat shards in
      List.length union = n
      && List.sort compare union = ifaults
      && List.for_all
           (fun s ->
             List.for_all (fun (i, _) -> List.mem_assoc i ifaults) s)
           shards)

let with_tmp f =
  let path = Filename.temp_file "s4e_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let flow_cfg ~seed ~n =
  { Flows.default_fault_config with
    Flows.ff_seed = seed; ff_mutants = n; ff_fuel = 100_000;
    ff_hang_budget = Flows.Hang_fuel }

let engine_program () = S4e_asm.Assembler.assemble_exn engine_src

let test_journal_roundtrip_and_torn_tail () =
  let p = engine_program () in
  with_tmp (fun path ->
      let r =
        match Flows.fault_campaign ~journal:path (flow_cfg ~seed:11 ~n:30) p with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "complete" true r.Flows.ff_complete;
      let h, records =
        match Journal.read path with
        | Ok x -> x
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "header total" 30 h.Journal.j_total;
      Alcotest.(check int) "one record per mutant" 30 (List.length records);
      Alcotest.(check bool) "journal reproduces the summary" true
        (Campaign.summarize
           (List.map (fun r -> (r.Journal.r_fault, r.Journal.r_outcome)) records)
        = r.Flows.ff_summary);
      (* a torn final line (crash mid-write) is dropped on read *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"i\":99,\"fau";
      close_out oc;
      match Journal.read path with
      | Ok (_, records') ->
          Alcotest.(check int) "torn tail dropped" 30 (List.length records')
      | Error e -> Alcotest.fail ("torn tail should be tolerated: " ^ e))

let resume_differential =
  prop ~count:4 "interrupted-at-k + resume = full run"
    QCheck.(triple (int_bound 1000) (int_range 0 29) (int_range 1 4))
    (fun (seed, k, jobs) ->
      let p = engine_program () in
      let cfg = flow_cfg ~seed ~n:30 in
      with_tmp (fun j_full ->
          with_tmp (fun j_part ->
              let full =
                match Flows.fault_campaign ~jobs ~journal:j_full cfg p with
                | Ok r -> r
                | Error e -> Alcotest.fail e
              in
              let header, records =
                match Journal.read j_full with
                | Ok x -> x
                | Error e -> Alcotest.fail e
              in
              (* reconstruct the journal of a run interrupted after k
                 classifications, then resume it *)
              let w =
                match Journal.create ~path:j_part header with
                | Ok w -> w
                | Error e -> Alcotest.fail e
              in
              List.iteri (fun i r -> if i < k then Journal.write w r) records;
              Journal.close w;
              let resumed =
                match Flows.fault_campaign ~jobs ~resume:j_part cfg p with
                | Ok r -> r
                | Error e -> Alcotest.fail e
              in
              resumed.Flows.ff_resumed = k
              && resumed.Flows.ff_complete
              && resumed.Flows.ff_summary = full.Flows.ff_summary
              && resumed.Flows.ff_results = full.Flows.ff_results)))

let test_resume_rejects_other_campaign () =
  let p = engine_program () in
  with_tmp (fun path ->
      (match Flows.fault_campaign ~journal:path (flow_cfg ~seed:3 ~n:10) p with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      match Flows.fault_campaign ~resume:path (flow_cfg ~seed:4 ~n:10) p with
      | Ok _ -> Alcotest.fail "resume with a different seed must be rejected"
      | Error _ -> ())

let test_shard_merge_equals_full () =
  let p = engine_program () in
  let cfg = flow_cfg ~seed:17 ~n:24 in
  let full =
    match Flows.fault_campaign cfg p with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let count = 3 in
  let journals =
    List.init count (fun index ->
        let path =
          Filename.temp_file (Printf.sprintf "s4e_shard%d" index) ".jsonl"
        in
        (match
           Flows.fault_campaign ~journal:path ~shard:(index, count) cfg p
         with
        | Ok r -> Alcotest.(check bool) "shard complete" true r.Flows.ff_complete
        | Error e -> Alcotest.fail e);
        path)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) journals)
    (fun () ->
      let inputs =
        List.map
          (fun path ->
            match Journal.read path with
            | Ok x -> x
            | Error e -> Alcotest.fail e)
          journals
      in
      match Journal.merge inputs with
      | Error e -> Alcotest.fail e
      | Ok (h, records) ->
          Alcotest.(check bool) "merged complete" true
            (Journal.is_complete h records);
          Alcotest.(check bool) "merged summary = full summary" true
            (Campaign.summarize
               (List.map
                  (fun r -> (r.Journal.r_fault, r.Journal.r_outcome))
                  records)
            = full.Flows.ff_summary);
          Alcotest.(check bool) "merged results = full results" true
            (List.map (fun r -> (r.Journal.r_fault, r.Journal.r_outcome)) records
            = full.Flows.ff_results))

let test_cancellation_partial_then_resume () =
  (* cancel after ~half the mutants classify: the partial result is
     valid and resumable, and the resumed run completes the campaign *)
  let p = engine_program () in
  let cfg = flow_cfg ~seed:23 ~n:20 in
  let full =
    match Flows.fault_campaign cfg p with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  with_tmp (fun path ->
      (* the campaign's own mutants counter tracks classifications, so
         the cancellation callback can poll it like a SIGINT flag *)
      let reg = S4e_obs.Metrics.create () in
      let mutants = S4e_obs.Metrics.counter reg "campaign.mutants" in
      let partial =
        match
          Flows.fault_campaign ~metrics:reg ~journal:path
            ~cancelled:(fun () -> S4e_obs.Metrics.value mutants >= 10)
            cfg p
        with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "partial run incomplete" true
        (not partial.Flows.ff_complete);
      Alcotest.(check bool) "partial run classified a prefix" true
        (partial.Flows.ff_summary.Campaign.total < 20);
      let resumed =
        match Flows.fault_campaign ~resume:path cfg p with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "resumed run completes" true
        resumed.Flows.ff_complete;
      Alcotest.(check bool) "summary identical to uninterrupted" true
        (resumed.Flows.ff_summary = full.Flows.ff_summary))

let test_blind_generation () =
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let faults =
    Campaign.generate_blind ~seed:5 ~n:50 ~targets:[ `Gpr ]
      ~kinds:[ `Permanent ] ~program:p
      ~golden_instret:golden.Campaign.sig_instret
  in
  Alcotest.(check int) "fifty faults" 50 (List.length faults);
  (* blind generation hits registers the program never uses *)
  let unused =
    List.exists
      (fun f ->
        match f.Fault.loc with
        | Fault.Gpr (r, _) -> r >= 18 && r <= 27  (* s2..s11 untouched *)
        | _ -> false)
      faults
  in
  Alcotest.(check bool) "includes unused registers" true unused

(* ---------------- divergence triage ---------------- *)

(* Strict single-value JSON validator: triage JSONL lines must be
   parseable by any off-the-shelf consumer, so validate the grammar,
   not just the fields we happen to read back. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail () = raise Exit in
  let adv () = incr pos in
  let rec skip_ws () =
    match peek () with Some (' ' | '\t') -> adv (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = Some c then adv () else fail () in
  let lit w =
    let m = String.length w in
    if !pos + m <= n && String.sub s !pos m = w then pos := !pos + m
    else fail ()
  in
  let number () =
    if peek () = Some '-' then adv ();
    let start = !pos in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do
      adv ()
    done;
    if !pos = start then fail ()
  in
  let str () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> adv ()
      | Some '\\' -> (
          adv ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              adv (); go ()
          | Some 'u' ->
              adv ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> adv ()
                | _ -> fail ()
              done;
              go ()
          | _ -> fail ())
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ -> adv (); go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then adv ()
    else
      let rec members () =
        skip_ws (); str (); skip_ws (); expect ':'; value (); skip_ws ();
        match peek () with
        | Some ',' -> adv (); members ()
        | Some '}' -> adv ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then adv ()
    else
      let rec elems () =
        value (); skip_ws ();
        match peek () with
        | Some ',' -> adv (); elems ()
        | Some ']' -> adv ()
        | _ -> fail ()
      in
      elems ()
  in
  match value (); skip_ws (); !pos = n with
  | r -> r
  | exception Exit -> false

let test_triage_locates_divergence () =
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let faults =
    [ { Fault.loc = Fault.Gpr (10, 0); kind = Fault.Transient 20 };
      { Fault.loc = Fault.Code (0x8000_0000, 3); kind = Fault.Permanent } ]
  in
  let results =
    List.mapi
      (fun i f -> (i, f, Campaign.run_one ~fuel:10_000 p ~golden f))
      faults
  in
  let recs = Campaign.triage ~fuel:10_000 p results in
  Alcotest.(check int) "one record per divergent mutant" 2 (List.length recs);
  List.iter
    (fun t ->
      Alcotest.(check bool) "diverged" true t.Campaign.tg_diverged;
      Alcotest.(check bool) "diverging site named" true
        (String.length t.Campaign.tg_insn > 0);
      Alcotest.(check bool) "architectural diff present" true
        (t.Campaign.tg_reg_diffs <> [] || t.Campaign.tg_mem_diff
        || t.Campaign.tg_golden_pc <> t.Campaign.tg_mutant_pc);
      Alcotest.(check bool) "tail dump present" true
        (t.Campaign.tg_tail <> []))
    recs;
  (* the transient flips a0 right before its 20th instruction retires,
     so the first differing record cannot come earlier *)
  let t0 = List.hd recs in
  Alcotest.(check bool) "transient diverges at/after injection" true
    (t0.Campaign.tg_instret >= 20);
  (* the permanent code flip turns the first instruction undecodable:
     the mutant's first record is the trap marker *)
  let t1 = List.nth recs 1 in
  Alcotest.(check int) "code flip diverges at the first instruction" 0
    t1.Campaign.tg_instret;
  Alcotest.(check bool) "code flip is a memory diff" true
    t1.Campaign.tg_mem_diff

let test_triage_flow_jsonl_and_top_sites () =
  let p = engine_program () in
  let cfg = flow_cfg ~seed:23 ~n:40 in
  let r = Flows.fault_flow cfg p in
  let divergent =
    List.filter
      (fun (_, _, o) ->
        match o with
        | Campaign.Sdc | Campaign.Crashed | Campaign.Hung -> true
        | _ -> false)
      r.Flows.ff_indexed
  in
  let sample = 4 in
  let expected = min sample (List.length divergent) in
  Alcotest.(check bool) "campaign produced divergent mutants" true
    (expected > 0);
  let recs = Flows.fault_triage ~sample cfg p r in
  Alcotest.(check int) "one triage record per sampled mutant" expected
    (List.length recs);
  List.iter
    (fun t ->
      let line = Campaign.triage_to_json t in
      Alcotest.(check bool) "jsonl: single line" false
        (String.contains line '\n');
      Alcotest.(check bool) "jsonl: valid JSON" true (json_valid line);
      Alcotest.(check bool) "diverged with a named site" true
        (t.Campaign.tg_diverged && String.length t.Campaign.tg_insn > 0))
    recs;
  let sites = Campaign.top_sites recs in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 sites in
  let ndiv =
    List.length (List.filter (fun t -> t.Campaign.tg_diverged) recs)
  in
  Alcotest.(check int) "site counts cover diverged records" ndiv total;
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as tl) -> a >= b && descending tl
    | _ -> true
  in
  Alcotest.(check bool) "sites ranked by count" true (descending sites)

let test_triage_deterministic () =
  let p = engine_program () in
  let cfg = flow_cfg ~seed:23 ~n:40 in
  let r = Flows.fault_flow cfg p in
  let a = Flows.fault_triage ~sample:3 cfg p r in
  let b = Flows.fault_triage ~sample:3 cfg p r in
  Alcotest.(check bool) "triage is deterministic" true (a = b)

let () =
  Alcotest.run "fault"
    [ ( "injector",
        [ Alcotest.test_case "golden signature" `Quick test_golden_signature;
          Alcotest.test_case "code flip" `Quick test_code_flip_changes_memory;
          Alcotest.test_case "transient gpr" `Quick test_transient_gpr_flip;
          Alcotest.test_case "x0 masked" `Quick test_x0_fault_masked;
          Alcotest.test_case "unused reg masked" `Quick
            test_unused_register_masked;
          Alcotest.test_case "opcode corruption crashes" `Quick
            test_opcode_corruption_crashes;
          Alcotest.test_case "bound corruption hangs" `Quick
            test_branch_corruption_can_hang ] );
      ( "campaign",
        [ Alcotest.test_case "dead code masked" `Quick
            test_unexecuted_code_fault_masked;
          Alcotest.test_case "untouched data masked" `Quick
            test_untouched_data_fault_masked;
          Alcotest.test_case "late transient masked" `Quick
            test_late_transient_masked;
          Alcotest.test_case "generation determinism" `Quick
            test_generation_determinism;
          Alcotest.test_case "guided sites covered" `Quick
            test_guided_sites_are_covered;
          Alcotest.test_case "summary adds up" `Quick
            test_campaign_summary_adds_up;
          Alcotest.test_case "blind generation" `Quick test_blind_generation;
          campaign_determinism ] );
      ( "engine",
        [ Alcotest.test_case "generation regression" `Quick
            test_generation_regression;
          Alcotest.test_case "jobs deterministic" `Quick
            test_jobs_deterministic;
          Alcotest.test_case "engine matches rerun" `Quick
            test_engine_matches_rerun;
          Alcotest.test_case "engine axes agree" `Quick
            test_engine_axes_agree;
          Alcotest.test_case "mid-block code flip visibility" `Quick
            test_midblock_code_flip_visibility;
          Alcotest.test_case "golden trace engine-independent" `Quick
            test_collect_trace_engine_independent ] );
      ( "hardening",
        [ fault_string_roundtrip;
          Alcotest.test_case "malformed fault errored" `Quick
            test_malformed_fault_errored;
          Alcotest.test_case "wall-clock timeout" `Quick
            test_wallclock_timeout;
          shard_completeness;
          Alcotest.test_case "journal roundtrip + torn tail" `Quick
            test_journal_roundtrip_and_torn_tail;
          resume_differential;
          Alcotest.test_case "resume rejects other campaign" `Quick
            test_resume_rejects_other_campaign;
          Alcotest.test_case "shard merge equals full" `Quick
            test_shard_merge_equals_full;
          Alcotest.test_case "cancel then resume" `Quick
            test_cancellation_partial_then_resume ] );
      ( "triage",
        [ Alcotest.test_case "locates first divergence" `Quick
            test_triage_locates_divergence;
          Alcotest.test_case "flow + jsonl + top sites" `Quick
            test_triage_flow_jsonl_and_top_sites;
          Alcotest.test_case "deterministic" `Quick
            test_triage_deterministic ] ) ]
