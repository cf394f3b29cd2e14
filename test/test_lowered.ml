(* Differential tests for the block executor.

   Every configuration in {!Engines.all} — lowered translation blocks
   with and without chaining, with instrumentation compiled in
   ([hooked]), with superblock traces, with the TLB off — must be
   observationally indistinguishable from the single-step reference
   interpreter: same stop reason, same instruction and cycle counts,
   and byte-identical [Machine.state_digest ~include_time:true] on
   every program, including ones that trap, take timer interrupts,
   sleep in WFI, rewrite their own code, and run compressed.  These
   tests drive all configurations over hand-written corner cases and
   random torture programs and compare.  The instrumented µops must
   also report the same events as the reference: insn, mem and trap
   hook streams and flight-recorder contents are compared one by one. *)

module Machine = S4e_cpu.Machine
module Hooks = S4e_cpu.Hooks
module Torture = S4e_torture.Torture
module Engines = S4e_torture.Engines
module Flight_recorder = S4e_obs.Flight_recorder

let prop ?(count = 25) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

type outcome = {
  o_stop : string;
  o_digest : string;
  o_instret : int;
  o_cycles : int;
}

let outcome_of m stop =
  { o_stop = Format.asprintf "%a" Machine.pp_stop_reason stop;
    o_digest = Digest.to_hex (Machine.state_digest ~include_time:true m);
    o_instret = Machine.instret m;
    o_cycles = Machine.cycles m }

(* [rig] arms the deterministic device-traffic rig (vnet generator +
   delayed DMA bursts, {!S4e_core.Flows.arm_device_rig}) before the
   run, so the differential also covers DMA invalidation, event-wheel
   ordering, and MEIP sampling. *)
let run_program ?(fuel = 200_000) ?(rig = false) e p =
  let m = Engines.create e in
  S4e_asm.Program.load_machine p m;
  if rig then S4e_core.Flows.arm_device_rig m;
  outcome_of m (Machine.run m ~fuel)

let check_engines_agree ?fuel ?rig p =
  match Engines.all with
  | [] -> assert false
  | { Engines.name = ref_name; _ } as ref_engine :: rest ->
      let reference = run_program ?fuel ?rig ref_engine p in
      List.iter
        (fun ({ Engines.name; _ } as e) ->
          let o = run_program ?fuel ?rig e p in
          Alcotest.(check string)
            (Printf.sprintf "%s vs %s: stop" name ref_name)
            reference.o_stop o.o_stop;
          Alcotest.(check int)
            (Printf.sprintf "%s vs %s: instret" name ref_name)
            reference.o_instret o.o_instret;
          Alcotest.(check int)
            (Printf.sprintf "%s vs %s: cycles" name ref_name)
            reference.o_cycles o.o_cycles;
          Alcotest.(check string)
            (Printf.sprintf "%s vs %s: digest" name ref_name)
            reference.o_digest o.o_digest)
        rest

let differential_asm ?fuel src =
  check_engines_agree ?fuel (S4e_asm.Assembler.assemble_exn src)

(* ---------------- hand-written corner cases ---------------- *)

(* Traps raised from the middle of a translation block: the handler
   skips the trapping instruction, so execution re-enters the block
   body at a non-entry pc. *)
let test_traps_mid_block () =
  differential_asm {|
_start:
  la   t0, handler
  csrw mtvec, t0
  li   s0, 0
  li   s1, 50
tloop:
  ecall
  ebreak
  addi s0, s0, 7
  addi s1, s1, -1
  bnez s1, tloop
  li   t1, 0x00100000
  sw   s0, 0(t1)
handler:
  addi s0, s0, 1
  csrr t2, mepc
  addi t2, t2, 4
  csrw mepc, t2
  mret
|}

(* mtvec pointing at the instruction right after the trap: single-step
   keeps executing straight on (pc happens to match), and the block
   executor must reproduce that by continuing the same block. *)
let test_trap_continues_block () =
  differential_asm {|
_start:
  la   t0, after
  csrw mtvec, t0
  li   s0, 11
  ecall
after:
  addi s0, s0, 22
  li   t1, 0x00100000
  sw   s0, 0(t1)
|}

(* Timer interrupts landing in the middle of a compute loop; the
   handler pushes mtimecmp forward so several fire over the run.  Cycle
   equality here proves interrupt latency is identical across engines
   (batched ticking never defers a timer past a sampling point, and
   single-step samples at the same block boundaries the TB path does). *)
let test_timer_interrupts_during_loop () =
  differential_asm {|
  .equ CLINT, 0x02000000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t1, CLINT + 0x4000
  li   t2, 40
  sw   t2, 0(t1)          # mtimecmp = 40
  sw   zero, 4(t1)
  li   t3, 0x80
  csrw mie, t3
  csrrsi zero, mstatus, 8
  li   s0, 0
  li   s1, 2000
loop:
  addi s0, s0, 3
  xor  s2, s0, s1
  addi s1, s1, -1
  bnez s1, loop
  add  s0, s0, s3
  li   t4, 0x00100000
  sw   s0, 0(t4)
handler:
  addi s3, s3, 1          # count interrupts
  li   t5, CLINT + 0x4000
  lw   t6, 0(t5)
  addi t6, t6, 97
  sw   t6, 0(t5)
  mret
|}

let test_wfi_wakeup_and_halt () =
  (* timer-driven wakeups, then a final WFI with interrupts disabled
     halts the hart; digests must agree on the halt as well *)
  differential_asm {|
  .equ CLINT, 0x02000000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t1, CLINT + 0x4000
  li   t2, 30
  sw   t2, 0(t1)
  sw   zero, 4(t1)
  li   t3, 0x80
  csrw mie, t3
  csrrsi zero, mstatus, 8
  li   s1, 3
wait:
  wfi
  bnez s1, wait
  csrw mie, zero          # no wake source left
  wfi                     # -> Wfi_halt
handler:
  addi s1, s1, -1
  li   t5, CLINT + 0x4000
  lw   t6, 0(t5)
  addi t6, t6, 50
  sw   t6, 0(t5)
  mret
|}

(* Reading the cycle and time CSRs from inside hot blocks: forces the
   lowered engine to flush its batched ticks at the observation point. *)
let test_time_observed_mid_block () =
  differential_asm {|
_start:
  li   s1, 300
loop:
  csrr t0, cycle
  csrr t1, time
  add  s0, t0, t1
  addi s1, s1, -1
  bnez s1, loop
  li   t2, 0x00100000
  sw   s0, 0(t2)
|}

let test_fatal_traps_agree () =
  differential_asm {|
_start:
  li  s0, 5
  .word 0x00000057
|};
  differential_asm {|
_start:
  li  t0, 0x80000001
  lw  t1, 0(t0)           # misaligned load, no handler
|}

(* Self-modifying code without fence.i: a store into an already-cached
   block must invalidate it (page-granular) so the next entry
   retranslates.  First pass adds 1, the patched second pass adds 99. *)
let smc_src = {|
_start:
  li   s0, 2
  li   a0, 0
  la   t0, patch
  lw   t1, 0(t0)
loop:
slot:
  addi a0, a0, 1
  addi s0, s0, -1
  beqz s0, done
  la   t2, slot
  sw   t1, 0(t2)
  j    loop
done:
  li   t3, 0x00100000
  sw   a0, 0(t3)
patch:
  addi a0, a0, 99
|}

let test_self_modifying_differential () = differential_asm smc_src

(* ---------------- hooks attach/detach mid-run ---------------- *)

(* Attaching a hook between runs starts an instrumented translation
   generation (observing every subsequent instruction) and detaching
   returns to plain µops — with no observable difference in the
   architectural trace. *)
let test_hooks_attach_detach_mid_run () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   s1, 400
loop:
  addi s0, s0, 3
  xor  s2, s0, s1
  addi s1, s1, -1
  bnez s1, loop
  li   t0, 0x00100000
  sw   s0, 0(t0)
|}
  in
  let staged hooked =
    let m = Machine.create () in
    S4e_asm.Program.load_machine p m;
    (* identical fuel staging in both runs so block segmentation and
       interrupt sampling line up *)
    let r1 = Machine.run m ~fuel:100 in
    assert (r1 = Machine.Out_of_fuel);
    let count = ref 0 in
    let id =
      if hooked then
        Some (S4e_cpu.Hooks.on_insn m.Machine.hooks (fun _ _ -> incr count))
      else None
    in
    let r2 = Machine.run m ~fuel:100 in
    assert (r2 = Machine.Out_of_fuel);
    (match id with
    | Some id ->
        Alcotest.(check int) "hook saw every staged instruction" 100 !count;
        S4e_cpu.Hooks.unregister m.Machine.hooks id
    | None -> ());
    let stop = Machine.run m ~fuel:100_000 in
    (Format.asprintf "%a" Machine.pp_stop_reason stop,
     Digest.to_hex (Machine.state_digest ~include_time:true m),
     Machine.cycles m)
  in
  let plain = staged false and hooked = staged true in
  Alcotest.(check bool) "hooked run identical to plain run" true
    (plain = hooked)

(* ---------------- superblock trace invalidation ---------------- *)

(* A hot self-patching loop: runs long enough for the trace engine to
   promote the loop body (promotion needs ~64 block dispatches plus hot
   chain edges), then periodically rewrites an instruction {e inside
   the promoted trace} from within it — the store's invalidation must
   kill the running trace, which bails at the next block boundary with
   exact architectural state.  [mask] sets the patch period; the store
   target alternates branchlessly between a data word and the loop's
   own code. *)
let smc_hot_loop ~iters ~mask =
  Printf.sprintf {|
_start:
  li   s3, 0x00200000
  la   s4, site
  sub  s4, s4, s3
  li   t0, %d
  li   s1, 0
loop:
  addi s1, s1, 1
  andi t1, t0, %d
  seqz t1, t1
  neg  t1, t1
  and  t1, t1, s4
  add  t2, s3, t1
  lw   t3, 0(t2)
  sw   t3, 0(t2)
site:
  addi t0, t0, -1
  bnez t0, loop
  li   t6, 0x00100000
  sw   s1, 0(t6)
  ebreak
|} iters mask

let test_smc_kills_running_trace () =
  (* directed variant with stats assertions: the trace must have been
     promoted, executed, and then invalidated by the in-trace store *)
  let p = S4e_asm.Assembler.assemble_exn (smc_hot_loop ~iters:10_000 ~mask:255) in
  check_engines_agree p;
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  (match Machine.run m ~fuel:200_000 with
  | Machine.Exited _ -> ()
  | stop ->
      Alcotest.failf "smc loop did not exit: %a" Machine.pp_stop_reason stop);
  match Machine.trace_stats m with
  | None -> Alcotest.fail "superblocks disabled in default config"
  | Some s ->
      Alcotest.(check bool) "traces promoted" true
        (s.S4e_cpu.Superblock.sb_promotions > 0);
      Alcotest.(check bool) "traces completed" true
        (s.S4e_cpu.Superblock.sb_completions > 0);
      Alcotest.(check bool) "in-trace SMC store invalidated traces" true
        (s.S4e_cpu.Superblock.sb_invalidations > 0);
      Alcotest.(check bool) "invalidated trace bailed mid-run" true
        (s.S4e_cpu.Superblock.sb_bail_dead > 0)

let smc_trace_agrees seed =
  let iters = 300 + (seed mod 4000) in
  let mask = [| 127; 255; 511 |].(seed mod 3) in
  check_engines_agree (S4e_asm.Assembler.assemble_exn (smc_hot_loop ~iters ~mask));
  true

(* Fault-injector writes landing in promoted trace code: inject a
   permanent code flip after the loop is hot (traces promoted and
   running), then finish the run.  The flip goes through
   [Tb_cache.notify_store], so it must kill the overlapping blocks AND
   their traces; both engines then execute the mutated code. *)
let injector_mid_trace_agrees seed =
  let iters = 4_000 + (seed mod 4_000) in
  let src = Printf.sprintf {|
_start:
  li   t0, %d
  li   s1, 0
loop:
  addi s1, s1, 1
  xori s1, s1, 21
slot:
  addi s1, s1, 3
  addi t0, t0, -1
  bnez t0, loop
  li   t6, 0x00100000
  sw   s1, 0(t6)
  ebreak
|} iters
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let slot =
    match S4e_asm.Program.symbol p "slot" with
    | Some a -> a
    | None -> Alcotest.fail "no slot symbol"
  in
  (* flip a bit of slot's immediate: stays a decodable addi, so the
     run completes with a different checksum on both engines *)
  let bit = 20 + (seed mod 12) in
  let fault =
    { S4e_fault.Fault.loc = S4e_fault.Fault.Code (slot, bit);
      kind = S4e_fault.Fault.Permanent }
  in
  let staged config =
    let m = Machine.create ~config () in
    S4e_asm.Program.load_machine p m;
    let r1 = Machine.run m ~fuel:2_000 in
    assert (r1 = Machine.Out_of_fuel);
    ignore (S4e_fault.Injector.inject m fault : S4e_fault.Injector.pin option);
    let stop = Machine.run m ~fuel:1_000_000 in
    (outcome_of m stop, Machine.trace_stats m)
  in
  let on, st = staged Machine.default_config in
  let off, _ = staged (Engines.sb_off Machine.default_config) in
  (match st with
  | Some s ->
      (* non-vacuity: the loop was hot enough to promote before the flip *)
      if s.S4e_cpu.Superblock.sb_promotions = 0 then
        QCheck.Test.fail_report "no trace promoted before injector write"
  | None -> QCheck.Test.fail_report "superblocks disabled");
  on = off

(* A stuck-at pin set, then released, while the loop is hot (µops
   lowered, traces promoted and running): each change must retranslate
   the hart's code, so every engine agrees with the single-step
   interpreter, which applies the pin per instruction.  The loop writes
   the pinned registers through a fused lui+addi pair, a fused
   addi+bnez pair and plain ALU ops. *)
let test_pin_mid_trace () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   t0, 3000
  li   s1, 0
loop:
  lui  a1, 0x12345
  addi a1, a1, 0x674
  add  s1, s1, a1
  xori s1, s1, 21
  addi t0, t0, -1
  bnez t0, loop
  xor  a0, s1, a1
  li   t6, 0x00100000
  sw   a0, 0(t6)
  ebreak
|}
  in
  List.iter
    (fun (r, bit) ->
      let staged e =
        let m = Engines.create e in
        S4e_asm.Program.load_machine p m;
        assert (Machine.run m ~fuel:2_000 = Machine.Out_of_fuel);
        let pin = Machine.pin m S4e_cpu.Arch_state.X r ~bit true in
        assert (Machine.run m ~fuel:4_000 = Machine.Out_of_fuel);
        Machine.unpin m pin;
        let stop = Machine.run m ~fuel:100_000 in
        (outcome_of m stop, Machine.trace_stats m)
      in
      let reference, _ = staged (List.hd Engines.all) in
      List.iter
        (fun (e : Engines.t) ->
          let o, st = staged e in
          let label what =
            Printf.sprintf "x%d bit %d, %s: %s" r bit e.Engines.name what
          in
          Alcotest.(check string) (label "stop") reference.o_stop o.o_stop;
          Alcotest.(check string) (label "digest") reference.o_digest
            o.o_digest;
          Alcotest.(check int) (label "cycles") reference.o_cycles o.o_cycles;
          match st with
          | Some s when e.Engines.name = "superblocks" ->
              Alcotest.(check bool) (label "traces ran") true
                (s.S4e_cpu.Superblock.sb_execs > 0)
          | _ -> ())
        Engines.all)
    [ (11, 2); (9, 0); (5, 31) ]

(* ---------------- random torture programs ---------------- *)

let torture_agrees ?rig ~compress seed =
  let cfg = { Torture.default_config with Torture.seed; compress } in
  let p = Torture.generate cfg in
  check_engines_agree ?rig ~fuel:(Torture.fuel_bound cfg) p;
  true

(* A guest driver over the device plane: DMA burst with completion IRQ
   serviced from WFI, then the per-byte PIO tap — every engine must
   sample MEIP at the same boundaries and fast-forward WFI to the same
   event deadlines. *)
let test_device_driver_agrees () =
  differential_asm {|
  .equ DMA,  0x10020000
  .equ VNET, 0x10030000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t0, 0x800
  csrw mie, t0
  csrrsi zero, mstatus, 8
  # one 64-byte DMA burst out of the code-adjacent data area
  la   a0, ring
  la   a1, src
  la   a2, dst
  sw   a1, 0(a0)
  sw   a2, 4(a0)
  li   t1, 64
  sw   t1, 8(a0)
  li   t1, 1
  sw   t1, 12(a0)
  li   s0, DMA
  sw   a0, 0x00(s0)
  li   t1, 1
  sw   t1, 0x04(s0)
  sw   t1, 0x14(s0)
  sw   t1, 0x08(s0)
wait:
  lw   t1, 0x20(s0)
  beqz t1, sleep
  j    drained
sleep:
  wfi
  j    wait
drained:
  # drain 32 stream bytes through the PIO tap
  li   s1, VNET
  li   t2, 9
  sw   t2, 0x2C(s1)
  li   s2, 0
  li   s3, 32
  li   s4, 0
pio:
  lw   t3, 0x50(s1)
  add  s4, s4, t3
  addi s2, s2, 1
  blt  s2, s3, pio
  lw   t4, 0(a2)        # first copied word
  add  a0, s4, t4
  li   t6, 0x00100000
  sw   a0, 0(t6)
  ebreak
handler:
  li   t5, DMA
  lw   t4, 0x10(t5)
  sw   t4, 0x10(t5)
  mret
  .data
ring:
  .space 16
src:
  .word 0x11223344, 2, 3, 4, 5, 6, 7, 8
  .space 32
dst:
  .space 64
|}

(* ---------------- instrumented event streams ---------------- *)

(* Torture programs in a trap-and-interrupt environment: a periodic
   timer interrupt, and random instruction sites patched to trap
   (ecall, c.ebreak, an illegal word) or to sleep (wfi).  The handler
   re-arms the timer on an interrupt; on a synchronous trap it
   overwrites the trapping instruction with a nop of the same width and
   retries it — code modified behind the translation cache.  The
   handler only uses registers the torture generator never touches
   (ra, sp, a6, a7). *)
let handler_base = S4e_soc.Memory_map.ram_base + 0x18000

let handler_src ~period =
  Printf.sprintf
    {|
  .org 0x%x
handler:
  csrr a6, mcause
  blt  a6, zero, irq
  csrr a7, mepc
  lhu  ra, 0(a7)
  andi ra, ra, 3
  li   sp, 3
  beq  ra, sp, wide
  li   ra, 1                # c.nop
  sh   ra, 0(a7)
  mret
wide:
  li   ra, 0x13             # addi zero, zero, 0
  sh   ra, 0(a7)
  sh   zero, 2(a7)
  mret
irq:
  li   a7, 0x02004000
  lw   ra, 0(a7)
  addi ra, ra, %d
  sw   ra, 0(a7)
  mret
|}
    handler_base period

(* Instruction boundaries of a program's code, by a linear walk (the
   torture layout is contiguous code from its base). *)
let instr_sites (p : S4e_asm.Program.t) =
  let code =
    List.find (fun c -> c.S4e_asm.Program.is_code) p.S4e_asm.Program.chunks
  in
  let b = code.S4e_asm.Program.bytes in
  let rec walk off acc =
    if off + 2 > String.length b then List.rev acc
    else
      let wide = Char.code b.[off] land 3 = 3 in
      let size = if wide then 4 else 2 in
      if off + size > String.length b then List.rev acc
      else walk (off + size) ((code.S4e_asm.Program.addr + off, size) :: acc)
  in
  (code, walk 0 [])

let le n w = String.init n (fun i -> Char.chr ((w lsr (8 * i)) land 0xFF))

(* The torture program for [seed] with patched sites and the handler;
   [setup] arms mtvec, the timer and interrupts after loading. *)
let env_program ~compress seed =
  let rng = Random.State.make [| seed; 0xe5 |] in
  let cfg = { Torture.default_config with Torture.seed; compress } in
  let p = Torture.generate cfg in
  let code, sites = instr_sites p in
  let bytes = Bytes.of_string code.S4e_asm.Program.bytes in
  let nsites = Array.of_list sites in
  for _ = 1 to 1 + Random.State.int rng 4 do
    let addr, size = nsites.(Random.State.int rng (Array.length nsites)) in
    let patch =
      if size = 4 then
        le 4
          [| 0x0000_0073 (* ecall *); 0x1050_0073 (* wfi *); 0 |].(
          Random.State.int rng 3)
      else le 2 [| 0x9002 (* c.ebreak *); 0 |].(Random.State.int rng 2)
    in
    Bytes.blit_string patch 0 bytes (addr - code.S4e_asm.Program.addr)
      (String.length patch)
  done;
  let handler =
    S4e_asm.Assembler.assemble_exn
      (handler_src ~period:(40 + Random.State.int rng 400))
  in
  let chunks =
    List.map
      (fun c ->
        if c == code then
          { c with S4e_asm.Program.bytes = Bytes.to_string bytes }
        else c)
      p.S4e_asm.Program.chunks
  in
  let p =
    { p with
      S4e_asm.Program.chunks = chunks @ handler.S4e_asm.Program.chunks }
  in
  let first_irq = 20 + Random.State.int rng 400 in
  let setup m =
    let st = m.Machine.state in
    st.S4e_cpu.Arch_state.mtvec <- handler_base;
    st.S4e_cpu.Arch_state.mie <- 0x80;
    S4e_cpu.Arch_state.set_mie_bit st true;
    let cmp = S4e_soc.Memory_map.clint_base + 0x4000 in
    S4e_mem.Bus.write32 m.Machine.bus cmp first_irq;
    S4e_mem.Bus.write32 m.Machine.bus (cmp + 4) 0
  in
  (p, setup, 4 * Torture.fuel_bound cfg)

type event =
  | Insn of int * S4e_isa.Instr.t
  | Mem of Hooks.mem_event
  | Trap of int * int
  | Block of int * int

(* One run with a flight recorder and a profiler attached, and — with
   [hooks] — every kind of subscriber. *)
let observe ?(hooks = true) ~rig config (p, setup, fuel) =
  let m = Machine.create ~config () in
  let events = ref [] in
  let push e = events := e :: !events in
  let h = m.Machine.hooks in
  if hooks then begin
    ignore (Hooks.on_insn h (fun pc i -> push (Insn (pc, i))) : Hooks.id);
    ignore (Hooks.on_mem h (fun ev -> push (Mem ev)) : Hooks.id);
    ignore
      (Hooks.on_trap h (fun c pc ->
           push (Trap (S4e_cpu.Trap.mcause_of_exception c, pc)))
        : Hooks.id);
    ignore (Hooks.on_block h (fun pc n -> push (Block (pc, n))) : Hooks.id)
  end;
  let r = Flight_recorder.create ~capacity:(1 lsl 15) () in
  Machine.set_recorder m (Some r);
  let prof = S4e_obs.Profile.create () in
  Machine.set_profiler m (Some prof);
  S4e_asm.Program.load_machine p m;
  setup m;
  if rig then S4e_core.Flows.arm_device_rig m;
  let o = outcome_of m (Machine.run m ~fuel) in
  (List.rev !events, Flight_recorder.records r, prof, o)

(* Block events are the dispatched translation blocks: per pc they
   count exactly the profiler's dispatches, each is followed by its
   first instruction, and no more than its length of instructions run
   before the next one. *)
let blocks_are_dispatches events prof =
  let counts = Hashtbl.create 64 in
  List.iter
    (function
      | Block (pc, _) ->
          Hashtbl.replace counts pc
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts pc))
      | _ -> ())
    events;
  let blocks = S4e_obs.Profile.blocks prof in
  let rec walk budget = function
    | [] -> true
    | Block (pc, n) :: (Insn (ipc, _) :: _ as rest) -> ipc = pc && walk n rest
    | Block _ :: _ -> false
    | Insn _ :: rest -> budget > 0 && walk (budget - 1) rest
    | (Mem _ | Trap _) :: rest -> walk budget rest
  in
  Hashtbl.length counts = List.length blocks
  && List.for_all
       (fun b ->
         Hashtbl.find_opt counts b.S4e_obs.Profile.bl_pc
         = Some b.S4e_obs.Profile.bl_execs)
       blocks
  && walk 0 events

let streams_agree seed =
  let compress = seed land 1 = 1 and rig = seed land 2 = 2 in
  let env = env_program ~compress seed in
  let not_block = function Block _ -> false | _ -> true in
  let ref_events, ref_records, _, ref_o =
    observe ~rig
      { Machine.default_config with Machine.use_tb_cache = false }
      env
  in
  let ref_stream = List.filter not_block ref_events in
  List.for_all
    (fun (name, config) ->
      let events, records, prof, o = observe ~rig config env in
      let check what ok =
        if not ok then
          QCheck.Test.fail_reportf "%s: %s differs from single-step" name what
      in
      check "outcome" (o = ref_o);
      check "insn/mem/trap stream" (List.filter not_block events = ref_stream);
      check "recorder contents" (records = ref_records);
      check "block events" (blocks_are_dispatches events prof);
      (* a recorder alone: data accesses take the plain µops *)
      let _, records, _, o = observe ~hooks:false ~rig config env in
      check "recorder-only outcome" (o = ref_o);
      check "recorder-only contents" (records = ref_records);
      true)
    [ ("chained", Machine.default_config);
      ("unchained",
       { Machine.default_config with Machine.chain_blocks = false });
      ("tlb-off", { Machine.default_config with Machine.mem_tlb = false }) ]

(* the environment programs also go through the whole digest matrix *)
let env_agrees seed =
  let compress = seed land 1 = 1 and rig = seed land 2 = 2 in
  let p, setup, fuel = env_program ~compress seed in
  let run e =
    let m = Engines.create e in
    S4e_asm.Program.load_machine p m;
    setup m;
    if rig then S4e_core.Flows.arm_device_rig m;
    outcome_of m (Machine.run m ~fuel)
  in
  let reference = run (List.hd Engines.all) in
  List.for_all (fun e -> run e = reference) Engines.all

let props =
  [ prop "torture: engines agree" seed_gen (torture_agrees ~compress:false);
    prop ~count:15 "torture (compressed): engines agree" seed_gen
      (torture_agrees ~compress:true);
    prop ~count:15 "torture + device rig: engines agree" seed_gen
      (torture_agrees ~rig:true ~compress:false);
    prop ~count:20 "torture + traps/irq/wfi/smc: engines agree" seed_gen
      env_agrees;
    prop ~count:20 "instrumented event streams equal single-step's" seed_gen
      streams_agree ]

let sb_props =
  [ prop ~count:15 "smc in hot trace: engines agree" seed_gen smc_trace_agrees;
    prop ~count:10 "injector write mid-trace: engines agree" seed_gen
      injector_mid_trace_agrees ]

let () =
  Alcotest.run "lowered"
    [ ("differential",
       [ Alcotest.test_case "traps mid-block" `Quick test_traps_mid_block;
         Alcotest.test_case "trap continues block" `Quick
           test_trap_continues_block;
         Alcotest.test_case "timer interrupts during loop" `Quick
           test_timer_interrupts_during_loop;
         Alcotest.test_case "wfi wakeup and halt" `Quick
           test_wfi_wakeup_and_halt;
         Alcotest.test_case "time observed mid-block" `Quick
           test_time_observed_mid_block;
         Alcotest.test_case "fatal traps agree" `Quick test_fatal_traps_agree;
         Alcotest.test_case "self-modifying code" `Quick
           test_self_modifying_differential;
         Alcotest.test_case "hooks attach/detach mid-run" `Quick
           test_hooks_attach_detach_mid_run;
         Alcotest.test_case "device driver (dma irq + pio)" `Quick
           test_device_driver_agrees ]);
      ("superblocks",
       Alcotest.test_case "smc kills running trace" `Quick
         test_smc_kills_running_trace
       :: Alcotest.test_case "stuck-at pin mid-trace: engines agree" `Quick
            test_pin_mid_trace
       :: sb_props);
      ("torture", props) ]
