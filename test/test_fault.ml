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
  let _ = Injector.inject m { Fault.loc = Fault.Code (0x8000_0000, 5); kind = Fault.Permanent } in
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

(* ---------------- the hook oracle ---------------- *)

(* Programs for the oracle property, one per shape the fault model has
   to get right: [0] takes a trap per iteration through an ecall
   handler; [1] overwrites the registers and the data word it faults
   on every iteration and keeps two FPRs live; [2] is a hot
   three-instruction loop, so code faults land in a word executed
   hundreds of times; [3] loads one of its own code words, so that word
   is both code and data; [4] is a loop hot enough to become a
   superblock trace, built of the pairs a trace fuses (lui+addi,
   auipc+addi, lui+sw, lui+lw, addi+bnez), whose destinations later
   code reads. *)
let fused_loop ~s0 ~iters =
  Printf.sprintf {|
_start:
  li   s0, %d
  li   s1, %d
hot:
  lui  a1, 0x12345
  addi a1, a1, 0x674
  add  s0, s0, a1
  lui  a2, 0x80001
  sw   s0, 8(a2)
  lui  a3, 0x80001
  lw   a4, 8(a3)
  xor  s0, s0, a4
  add  s0, s0, a3
  auipc a5, 0
  addi a5, a5, 12
  add  s0, s0, a5
  addi s1, s1, -1
  bnez s1, hot
  srli t0, s0, 16
  xor  s0, s0, t0
  srli t0, s0, 8
  xor  s0, s0, t0
|} s0 iters

(* The registers [fused_loop] builds with fused pairs. *)
let fused_dests =
  [ 9 (* s1 *); 11 (* a1 *); 12 (* a2 *); 13 (* a3 *); 15 (* a5 *) ]

let oracle_program shape k =
  let exit_a0 = {|
  andi a0, s0, 0xff
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|} in
  let body =
    match shape with
    | 0 ->
        Printf.sprintf {|
_start:
  la   t0, handler
  csrw mtvec, t0
  li   s0, %d
  li   s1, %d
loop:
  addi a7, s1, 3
  ecall
  addi s1, s1, -1
  bnez s1, loop
  j    done
handler:
  csrr t2, mepc
  addi t2, t2, 4
  csrw mepc, t2
  add  s0, s0, a7
  xor  s0, s0, t2
  mret
done:
|} k (8 + (k mod 16))
    | 1 ->
        Printf.sprintf {|
_start:
  la   s3, buf
  li   s0, %d
  li   s1, %d
loop:
  sw   s0, 0(s3)
  lw   t3, 0(s3)
  add  s0, s0, t3
  xori s0, s0, 0x55
  li   t0, 3
  add  s0, s0, t0
  fcvt.s.w ft0, s1
  fadd.s ft1, ft0, ft0
  fcvt.w.s t4, ft1
  add  s0, s0, t4
  addi s1, s1, -1
  bnez s1, loop
  j    done
  .data
buf:
  .word 0
  .text
done:
|} k (6 + (k mod 12))
    | 2 ->
        Printf.sprintf {|
_start:
  li   s0, %d
  li   s1, %d
hot:
  addi s0, s0, 7
  addi s1, s1, -1
  bnez s1, hot
|} k (200 + (k mod 100))
    | 3 ->
        Printf.sprintf {|
_start:
  li   s0, %d
  li   s1, %d
  la   s3, _start
loop:
  lw   t3, 0(s3)
  add  s0, s0, t3
  addi s1, s1, -1
  bnez s1, loop
|} k (5 + (k mod 10))
    | 4 -> fused_loop ~s0:k ~iters:(150 + (k mod 100))
    | _ -> invalid_arg "oracle_program"
  in
  S4e_asm.Assembler.assemble_exn (body ^ exit_a0)

(* Every runner — [run_one], the default engine and the rerun engine —
   classifies every mutant as the hook oracle does, on every engine
   config, for all four locations and both kinds.  Besides a
   coverage-guided list, every case flips the word of instruction n
   itself at instant n, and the fused-pair loop also pins bits of
   every fused pair's destination.  Left out: the one corner where the
   models differ, a word both executed and accessed as data that
   instruction n uses in the other role than the fault's (see the unit
   test below). *)
let oracle_agreement =
  prop ~count:12 "runners equal the hook oracle"
    QCheck.(pair (int_bound 4) (int_bound 10_000))
    (fun (shape, k) ->
      let p = oracle_program shape k in
      List.for_all
        (fun (e : S4e_torture.Engines.t) ->
          let config = e.S4e_torture.Engines.config in
          let golden, cov = Campaign.golden ~config ~fuel:100_000 p in
          let fuel = (3 * golden.Campaign.sig_instret) + 1_000 in
          let instret = golden.Campaign.sig_instret in
          let rng = Random.State.make [| k |] in
          let own_word _ =
            let n = 1 + Random.State.int rng instret in
            { Fault.loc =
                Fault.Code
                  (Hook_injector.pc_at ~config p n, Random.State.int rng 32);
              kind = Fault.Transient n }
          in
          let pinned_pairs =
            if shape <> 4 then []
            else
              let stuck r bit =
                { Fault.loc = Fault.Gpr (r, bit); kind = Fault.Permanent }
              in
              List.concat_map
                (fun r -> [ stuck r 2; stuck r (Random.State.int rng 32) ])
                fused_dests
          in
          let faults =
            Campaign.generate ~seed:k ~n:32
              ~targets:[ `Gpr; `Fpr; `Code; `Data ]
              ~kinds:[ `Permanent; `Transient ] ~coverage:cov
              ~golden_instret:instret
            @ List.init 8 own_word @ pinned_pairs
            |> List.filter (fun f ->
                   not (Hook_injector.instant_corner ~config p f))
          in
          let oracle =
            List.map
              (fun f -> (f, Hook_injector.run_one ~config ~fuel p ~golden f))
              faults
          in
          let one =
            List.map
              (fun f -> (f, Campaign.run_one ~config ~fuel p ~golden f))
              faults
          in
          let campaign engine =
            Campaign.run ~config ~engine ~fuel p ~golden faults
          in
          let agree name got =
            got = oracle
            || QCheck.Test.fail_reportf "%s on %s disagrees with the oracle"
                 name e.S4e_torture.Engines.name
          in
          agree "run_one" one
          && agree "default engine" (campaign Campaign.default_engine)
          && agree "rerun engine" (campaign Campaign.rerun_engine))
        S4e_torture.Engines.all)

(* Every runner classifies [fault] as [want], and so does the oracle
   unless [oracle] says otherwise. *)
let check_runners ?oracle p ~golden ~fuel fault want =
  let name = Campaign.outcome_name in
  Alcotest.(check string) "hook oracle"
    (name (Option.value oracle ~default:want))
    (name (Hook_injector.run_one ~fuel p ~golden fault));
  Alcotest.(check string) "run_one" (name want)
    (name (Campaign.run_one ~fuel p ~golden fault));
  List.iter
    (fun (label, engine) ->
      match Campaign.run ~engine ~fuel p ~golden [ fault ] with
      | [ (_, o) ] -> Alcotest.(check string) label (name want) (name o)
      | _ -> Alcotest.fail (label ^ ": expected one classified mutant"))
    [ ("default engine", Campaign.default_engine);
      ("rerun engine", Campaign.rerun_engine) ]

let test_code_transient_own_instruction () =
  (* The flipped word is instruction n itself: it executes as decoded,
     and only later fetches see the flip.  The addi at 0x80000008 runs
     at instret 3, 6, 9 and 12; bit 21 turns its +1 into +3. *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   a0, 0
  li   t2, 4
loop:
  addi a0, a0, 1
  addi t2, t2, -1
  bnez t2, loop
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let golden, _ = Campaign.golden ~fuel:1_000 p in
  Alcotest.(check (option int)) "golden exit" (Some 4) golden.Campaign.sig_exit;
  let at n = { Fault.loc = Fault.Code (0x80000008, 21); kind = Fault.Transient n } in
  (* the last execution is instruction 12: nothing fetches the flip *)
  check_runners p ~golden ~fuel:1_000 (at 12) Campaign.Masked;
  (* flipped at the second execution: the last two see +3 *)
  check_runners p ~golden ~fuel:1_000 (at 6) Campaign.Sdc;
  Alcotest.(check int) "instant is n" 12 (Injector.instant (at 12))

let test_code_and_data_word_corner () =
  (* The word at _start (auipc, low byte 0x97) runs once and is then
     read as data.  When instruction n uses the flipped word in the
     other role than the fault's, the flip at the instant and the
     hook's flip before instruction n differ: a code transient's flip
     lands after instruction n loads or stores the word, and a data
     transient's flip lands before instruction n is fetched from it. *)
  let exit_with_low_byte = {|
  andi a0, a0, 0xff
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|} in
  let load =
    S4e_asm.Assembler.assemble_exn ({|
_start:
  la   t0, _start
  lw   a0, 0(t0)
|} ^ exit_with_low_byte)
  in
  let store =
    S4e_asm.Assembler.assemble_exn ({|
_start:
  la   t0, _start
  li   t2, 0x12345678
  sw   t2, 0(t0)
  lw   a0, 0(t0)
|} ^ exit_with_low_byte)
  in
  let fault loc n = { Fault.loc; kind = Fault.Transient n } in
  let code = fault (Fault.Code (0x80000000, 1)) in
  let data = fault (Fault.Data (0x80000000, 1)) in
  let g_load, _ = Campaign.golden ~fuel:1_000 load in
  let g_store, _ = Campaign.golden ~fuel:1_000 store in
  List.iter
    (fun (what, p, f) ->
      Alcotest.(check bool) what true (Hook_injector.instant_corner p f))
    [ ("instruction 3 loads the word", load, code 3);
      ("instruction 5 stores the word", store, code 5);
      ("instruction 1 is fetched from the word", load, data 1) ];
  Alcotest.(check bool) "instruction 2 is not" false
    (Hook_injector.instant_corner load (code 2));
  (* the load reads the word before the flip; the hook's flip came first *)
  check_runners load ~golden:g_load ~fuel:1_000 (code 3) Campaign.Masked
    ~oracle:Campaign.Sdc;
  (* the flip lands on the stored word; the hook's flip was overwritten *)
  check_runners store ~golden:g_store ~fuel:1_000 (code 5) Campaign.Sdc
    ~oracle:Campaign.Masked;
  (* instruction 1 is fetched flipped (an illegal opcode); under the
     hook it ran as decoded and only the load saw the flip *)
  check_runners load ~golden:g_load ~fuel:1_000 (data 1) Campaign.Crashed
    ~oracle:Campaign.Sdc

let test_stuck_at_fused_pair () =
  (* Shaped like a dhrystone mutant (a1 bit 2 stuck at 1): a1 is built
     by a lui+addi pair in a loop hot enough to become a trace, and the
     exit code is the last value built.  The addi reads the held lui
     value, 0x12345004, so a1 becomes 0x1234567c where the golden run
     has 0x12345674.  A fused pair that adds the immediate to the
     unheld constant would store the golden value, with bit 2 already
     set, and call the mutant masked. *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   s0, 0
  li   s1, 300
hot:
  lui  a1, 0x12345
  addi a1, a1, 0x674
  add  s0, s0, a1
  addi s1, s1, -1
  bnez s1, hot
  andi a0, a1, 0xff
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let fault = { Fault.loc = Fault.Gpr (11, 2); kind = Fault.Permanent } in
  List.iter
    (fun (e : S4e_torture.Engines.t) ->
      let config = e.S4e_torture.Engines.config in
      let golden, _ = Campaign.golden ~config ~fuel:10_000 p in
      let name = Campaign.outcome_name in
      let label what = e.S4e_torture.Engines.name ^ ": " ^ what in
      Alcotest.(check string) (label "hook oracle") "sdc"
        (name (Hook_injector.run_one ~config ~fuel:10_000 p ~golden fault));
      Alcotest.(check string) (label "run_one") "sdc"
        (name (Campaign.run_one ~config ~fuel:10_000 p ~golden fault));
      List.iter
        (fun (what, engine) ->
          match
            Campaign.run ~config ~engine ~fuel:10_000 p ~golden [ fault ]
          with
          | [ (_, o) ] -> Alcotest.(check string) (label what) "sdc" (name o)
          | _ -> Alcotest.fail "expected one classified mutant")
        [ ("default engine", Campaign.default_engine);
          ("rerun engine", Campaign.rerun_engine) ])
    S4e_torture.Engines.all;
  (* the loop does run as a trace with the pair in it *)
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  ignore (Injector.inject m fault : Injector.pin option);
  ignore (Machine.run m ~fuel:10_000 : Machine.stop_reason);
  let st = Option.get (Machine.trace_stats m) in
  Alcotest.(check bool) "traces ran" true (st.S4e_cpu.Superblock.sb_execs > 0)

(* A campaign of stuck-at register faults only, with no hooks and no
   recorder, runs every mutant on plain translated code: no machine
   ever switches to instrumented µops, and superblock traces run. *)
let test_stuck_at_never_instrumented () =
  let p = oracle_program 4 11 in
  let faults =
    List.concat_map
      (fun r ->
        [ { Fault.loc = Fault.Gpr (r, 3); kind = Fault.Permanent };
          { Fault.loc = Fault.Fpr (r, 22); kind = Fault.Permanent } ])
      (fused_dests @ [ 0; 8 ])
  in
  List.iter
    (fun (e : S4e_torture.Engines.t) ->
      let config = e.S4e_torture.Engines.config in
      let golden, _ = Campaign.golden ~config ~fuel:100_000 p in
      List.iter
        (fun (what, engine) ->
          let reg = S4e_obs.Metrics.create () in
          let results =
            Campaign.run ~config ~engine ~metrics:reg ~fuel:100_000 p ~golden
              faults
          in
          let get k = S4e_obs.Metrics.value (S4e_obs.Metrics.counter reg k) in
          let label s = e.S4e_torture.Engines.name ^ ", " ^ what ^ ": " ^ s in
          Alcotest.(check int) (label "all classified") (List.length faults)
            (List.length results);
          Alcotest.(check int) (label "instrumented generations") 0
            (get "campaign.instrumented_generations");
          Alcotest.(check bool) (label "superblock traces ran") true
            (get "campaign.sb_execs" > 0))
        [ ("default engine", Campaign.default_engine);
          ("rerun engine", Campaign.rerun_engine) ])
    (List.filter
       (fun (e : S4e_torture.Engines.t) ->
         let c = e.S4e_torture.Engines.config in
         c.Machine.superblocks && c.Machine.use_tb_cache)
       S4e_torture.Engines.all)

(* A pin belongs to the machine, not to the instant: reset and restore
   re-assert it, and unpinning leaves the register to the next
   write. *)
let test_pin_survives_restore () =
  let m = Machine.create () in
  S4e_asm.Program.load_machine (program ()) m;
  let st = m.Machine.state in
  let a0 () = S4e_cpu.Arch_state.get_reg st 10 in
  let snap = Machine.snapshot m in
  let pin =
    Option.get
      (Injector.inject m
         { Fault.loc = Fault.Gpr (10, 4); kind = Fault.Permanent })
  in
  Alcotest.(check int) "asserted at once" 16 (a0 ());
  S4e_cpu.Arch_state.set_reg st 10 0;
  Machine.restore m snap;
  Alcotest.(check int) "restore re-asserts" 16 (a0 ());
  Machine.reset m ~pc:0x8000_0000;
  Alcotest.(check int) "reset re-asserts" 16 (a0 ());
  Injector.unpin m pin;
  Machine.restore m snap;
  Alcotest.(check int) "unpinned" 0 (a0 ())

let test_permanent_code_data_reconverge () =
  (* A permanent data flip and a permanent code flip that the program
     overwrites before reading: once the store lands the state equals
     the golden run's, so the guard exits early with the rerun
     engine's outcome. *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  la   s3, buf
  li   s0, 7
  sw   s0, 0(s3)
  la   t0, patch
  li   t2, 0x00150513
  sw   t2, 0(t0)
  li   s1, 700
loop:
  lw   t3, 0(s3)
  add  a1, a1, t3
patch:
  nop
  addi s1, s1, -1
  bnez s1, loop
  add  a0, a0, a1
  andi a0, a0, 0xff
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
  .data
buf:
  .word 0
|}
  in
  let fuel = 100_000 in
  let golden, _ = Campaign.golden ~fuel p in
  let sym s = Option.get (S4e_asm.Program.symbol p s) in
  List.iter
    (fun (what, loc) ->
      let fault = { Fault.loc; kind = Fault.Permanent } in
      let run engine =
        let reg = S4e_obs.Metrics.create () in
        match Campaign.run ~engine ~metrics:reg ~fuel p ~golden [ fault ] with
        | [ (_, o) ] ->
            ( Campaign.outcome_name o,
              S4e_obs.Metrics.value
                (S4e_obs.Metrics.counter reg "campaign.early_exits") )
        | _ -> Alcotest.fail "expected one classified mutant"
      in
      let o_default, early = run Campaign.default_engine in
      let o_rerun, _ = run Campaign.rerun_engine in
      Alcotest.(check string) (what ^ ": default = rerun") o_rerun o_default;
      Alcotest.(check string) (what ^ ": masked") "masked" o_default;
      Alcotest.(check int) (what ^ ": early exit") 1 early)
    [ ("data", Fault.Data (sym "buf", 3)); ("code", Fault.Code (sym "patch", 9)) ]

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

let test_resume_from_lines () =
  (* A journal held in memory as its lines — a fleet grant's payload —
     resumes like the file, passes the same checks, and opens no
     writer. *)
  let p = engine_program () in
  let cfg = flow_cfg ~seed:5 ~n:20 in
  let ok = function Ok r -> r | Error e -> Alcotest.fail e in
  with_tmp (fun path ->
      let full = ok (Flows.fault_campaign ~journal:path cfg p) in
      let header, records = ok (Journal.read path) in
      let h = Journal.header_line header in
      let first k = List.filteri (fun i _ -> i < k) records in
      let lines k = List.map Journal.record_line (first k) in
      let resumed = ok (Flows.fault_campaign ~resume_lines:(h, lines 7) cfg p) in
      Alcotest.(check int) "resumed records" 7 resumed.Flows.ff_resumed;
      Alcotest.(check bool) "= uninterrupted run" true
        (resumed.Flows.ff_complete
        && resumed.Flows.ff_results = full.Flows.ff_results);
      let streamed = ref 0 in
      ignore
        (ok
           (Flows.fault_campaign ~resume_lines:(h, lines 7)
              ~on_journal_line:(fun _ -> incr streamed)
              cfg p));
      Alcotest.(check int) "header + fresh records streamed" 14 !streamed;
      let rejected what r =
        match r with
        | Ok _ -> Alcotest.fail (what ^ " must be rejected")
        | Error _ -> ()
      in
      rejected "another campaign's header"
        (Flows.fault_campaign ~resume_lines:(h, lines 7)
           (flow_cfg ~seed:6 ~n:20) p);
      let forged =
        match first 1 with
        | [ r ] ->
            Journal.record_line
              { r with
                Journal.r_fault =
                  { r.Journal.r_fault with
                    Fault.kind = Fault.Transient 999_999 } }
        | _ -> Alcotest.fail "expected a record"
      in
      rejected "a record of another fault list"
        (Flows.fault_campaign ~resume_lines:(h, [ forged ]) cfg p);
      rejected "a malformed line"
        (Flows.fault_campaign ~resume_lines:(h, [ "{" ]) cfg p);
      rejected "both forms"
        (Flows.fault_campaign ~resume:path ~resume_lines:(h, []) cfg p);
      Alcotest.(check bool) "the journal file is untouched" true
        (Journal.read path = Ok (header, records)))

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

(* A process keeps the last campaign's setup (golden run, fault list,
   checkpoint trace) for the next campaign with the same inputs.  The
   reuse must be invisible: campaigns of another program, seed or fuel
   in between never hand a campaign someone else's setup, and resume
   validation still sees the campaign's own fault list. *)
let test_setup_reuse_is_invisible () =
  let a = engine_program () in
  (* the same loop, half the outer trip count *)
  let b =
    S4e_asm.Assembler.assemble_exn
      (String.concat "\n"
         (List.map
            (fun l ->
              if String.trim l = "li   s2, 120" then "  li   s2, 60" else l)
            (String.split_on_char '\n' engine_src)))
  in
  let reg = S4e_obs.Metrics.create () in
  let sink = S4e_obs.Trace_events.create () in
  let run ?resume ?journal ?shard cfg p =
    Flows.fault_campaign ~metrics:reg ~trace:sink ?resume ?journal ?shard cfg p
  in
  let ok = function Ok r -> r | Error e -> Alcotest.fail e in
  let cfg = flow_cfg ~seed:5 ~n:24 in
  let cfg_seed2 = { cfg with Flows.ff_seed = 2 } in
  (* too little fuel to finish the golden run: another golden signature,
     so other transient injection times *)
  let cfg_fuel = { cfg with Flows.ff_fuel = 5_000 } in
  let golden ~fuel = Campaign.golden ~fuel a in
  let faults_of c =
    let g, cov = golden ~fuel:c.Flows.ff_fuel in
    Campaign.generate ~seed:c.Flows.ff_seed ~n:c.Flows.ff_mutants
      ~targets:c.Flows.ff_targets ~kinds:c.Flows.ff_kinds ~coverage:cov
      ~golden_instret:g.Campaign.sig_instret
  in
  with_tmp (fun j0 ->
      let s0 = ok (run ~journal:j0 ~shard:(0, 4) cfg a) in
      let rb = ok (run cfg b) in
      let rest = List.map (fun i -> ok (run ~shard:(i, 4) cfg a)) [ 1; 2; 3 ] in
      let r2 = ok (run cfg_seed2 a) in
      (match run ~resume:j0 ~shard:(0, 4) cfg_seed2 a with
      | Ok _ -> Alcotest.fail "resume with another seed must be rejected"
      | Error _ -> ());
      (* [full] leaves A's setup in the slot, so a key without the fuel
         would hand it to [rf] *)
      let full = Flows.fault_flow cfg a in
      let rf = ok (run cfg_fuel a) in
      (match run ~resume:j0 ~shard:(0, 4) cfg_fuel a with
      | Ok _ -> Alcotest.fail "resume with another fuel must be rejected"
      | Error _ -> ());
      let reused =
        match
          List.assoc_opt "campaign.setup_reused" (S4e_obs.Metrics.snapshot reg)
        with
        | Some (S4e_obs.Metrics.Int n) -> n
        | _ -> 0
      in
      (* hits: A shards 2 and 3 after shard 1, and each rejected resume
         after the unsharded run with its seed or fuel *)
      Alcotest.(check int) "setups reused" 4 reused;
      let instants =
        match S4e_obs.Json.parse (S4e_obs.Trace_events.contents sink) with
        | Ok (S4e_obs.Json.List events) ->
            List.filter
              (fun e -> S4e_obs.Json.mem_str "name" e = Some "setup-reused")
              events
        | _ -> Alcotest.fail "the trace is not a JSON array"
      in
      Alcotest.(check int) "one setup-reused instant per reuse" 4
        (List.length instants);
      Alcotest.(check bool) "shard union = unsharded, record for record" true
        (List.sort compare
           (List.concat_map (fun r -> r.Flows.ff_indexed) (s0 :: rest))
        = full.Flows.ff_indexed);
      Alcotest.(check bool) "seed 2 faults = Campaign.generate ~seed:2" true
        (List.map fst r2.Flows.ff_results = faults_of cfg_seed2);
      Alcotest.(check bool) "other fuel faults regenerated" true
        (List.map fst rf.Flows.ff_results = faults_of cfg_fuel
        && faults_of cfg_fuel <> faults_of cfg);
      let g = fst (golden ~fuel:100_000) in
      List.iter
        (fun r ->
          Alcotest.(check bool) "golden unchanged" true (r.Flows.ff_golden = g))
        (s0 :: r2 :: full :: rest);
      Alcotest.(check bool) "other fuel, other golden" true
        (rf.Flows.ff_golden = fst (golden ~fuel:5_000)
        && rf.Flows.ff_golden <> g);
      Alcotest.(check bool) "other program, own golden" true
        (rb.Flows.ff_golden = fst (Campaign.golden ~fuel:100_000 b)
        && rb.Flows.ff_golden <> g))

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

let test_triage_stuck_at () =
  (* The pin acts on every write: [li a0, 0], the program's first
     instruction, already retires a0 = 16 where the golden run has 0,
     so that write is the divergence (a hook re-asserting the bit
     before each instruction showed the unheld 0 there, and the
     divergence only at the first read of a0). *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let fault = { Fault.loc = Fault.Gpr (10, 4); kind = Fault.Permanent } in
  let outcome = Campaign.run_one ~fuel:10_000 p ~golden fault in
  Alcotest.(check string) "sdc" "sdc" (Campaign.outcome_name outcome);
  match Campaign.triage ~fuel:10_000 p [ (0, fault, outcome) ] with
  | [ t ] ->
      Alcotest.(check bool) "diverged" true t.Campaign.tg_diverged;
      Alcotest.(check int) "at the first write" 1 t.Campaign.tg_instret;
      Alcotest.(check bool) "a0 held after the replay" true
        (List.exists
           (fun d ->
             d.Campaign.rd_name = "a0" && d.Campaign.rd_golden = 0
             && d.Campaign.rd_mutant = 16)
           t.Campaign.tg_reg_diffs)
  | _ -> Alcotest.fail "expected one triage record"

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
            test_collect_trace_engine_independent;
          oracle_agreement;
          Alcotest.test_case "code transient on its own instruction" `Quick
            test_code_transient_own_instruction;
          Alcotest.test_case "code-and-data word corner" `Quick
            test_code_and_data_word_corner;
          Alcotest.test_case "permanent code/data reconverge" `Quick
            test_permanent_code_data_reconverge;
          Alcotest.test_case "stuck-at on a fused pair" `Quick
            test_stuck_at_fused_pair;
          Alcotest.test_case "stuck-at campaign never instrumented" `Quick
            test_stuck_at_never_instrumented;
          Alcotest.test_case "pin survives restore" `Quick
            test_pin_survives_restore ] );
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
          Alcotest.test_case "resume from lines in memory" `Quick
            test_resume_from_lines;
          Alcotest.test_case "shard merge equals full" `Quick
            test_shard_merge_equals_full;
          Alcotest.test_case "cancel then resume" `Quick
            test_cancellation_partial_then_resume;
          Alcotest.test_case "setup reuse is invisible" `Quick
            test_setup_reuse_is_invisible ] );
      ( "triage",
        [ Alcotest.test_case "locates first divergence" `Quick
            test_triage_locates_divergence;
          Alcotest.test_case "flow + jsonl + top sites" `Quick
            test_triage_flow_jsonl_and_top_sites;
          Alcotest.test_case "deterministic" `Quick
            test_triage_deterministic;
          Alcotest.test_case "stuck-at diverges at the write" `Quick
            test_triage_stuck_at ] ) ]
