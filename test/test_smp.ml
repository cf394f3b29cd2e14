(* Multi-hart machine tests.

   Covers the SMP bug class the single-hart machine used to hide:
   mhartid hardwired to 0, misa not advertising the configured
   extensions, LR/SC reservations surviving trap entry (and machine
   forks), and WFI treated as terminal even when another hart could
   wake the sleeper with an IPI.  The differential half runs the
   deterministic SMP torture workloads (lib/torture/smp.ml) across the
   whole engine matrix ({!Engines.all}) and across scheduler slice
   sizes, and
   fuzzes LR/SC/AMO sequences the pre-SMP torture suite never
   generated. *)

module Machine = S4e_cpu.Machine
module Arch_state = S4e_cpu.Arch_state
module Csr = S4e_isa.Csr
module Isa_module = S4e_isa.Isa_module
module Smp = S4e_torture.Smp
module Engines = S4e_torture.Engines
module Torture = S4e_torture.Torture

let prop ?(count = 15) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let engines = Engines.all

let with_harts ?(slice = 1024) n config =
  { config with Machine.harts = n; Machine.hart_slice = slice }

let run_program ?(fuel = 1_000_000) config p =
  let m = Machine.create ~config () in
  S4e_asm.Program.load_machine p m;
  let stop = Machine.run m ~fuel in
  (m, stop)

(* [run_program] on engine [e], its config adjusted by [map] *)
let run_engine ?(fuel = 1_000_000) ?map e p =
  let m = Engines.create ?map e in
  S4e_asm.Program.load_machine p m;
  let stop = Machine.run m ~fuel in
  (m, stop)

let stop_str s = Format.asprintf "%a" Machine.pp_stop_reason s

let check_exit_ok name stop =
  Alcotest.(check string) (name ^ ": stop") "exited with code 0" (stop_str stop)

(* ---------------- per-hart CSR identity ---------------- *)

let test_mhartid_csr () =
  let m = Machine.create ~config:(with_harts 4 Machine.default_config) () in
  for i = 0 to 3 do
    let st = m.Machine.harts.(i).Machine.hx_state in
    Alcotest.(check int) "hartid field" i st.Arch_state.hartid;
    match Arch_state.csr_read st Csr.mhartid with
    | Some v -> Alcotest.(check int) "mhartid csr" i v
    | None -> Alcotest.fail "mhartid unimplemented"
  done

(* Each hart publishes mhartid+1 into its own slot; hart 0 collects.
   Exit status: sum of slots minus the expected sum (0 on success). *)
let test_mhartid_program () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  csrr t0, mhartid
  la   s0, slots
  slli t1, t0, 2
  add  t1, s0, t1
  addi t2, t0, 1
  sw   t2, 0(t1)
  bne  t0, x0, halt
wait0:
  lw   a0, 0(s0)
  lw   a1, 4(s0)
  beq  a0, x0, wait0
  beq  a1, x0, wait0
  add  a0, a0, a1
  addi a0, a0, -3
  li   t1, 0x00100000
  sw   a0, 0(t1)
halt:
  j halt
  .data
slots:
  .word 0, 0
|}
  in
  let _, stop = run_program (with_harts 2 Machine.default_config) p in
  check_exit_ok "mhartid program" stop

let test_misa () =
  let m = Machine.create () in
  let v =
    match Arch_state.csr_read m.Machine.state Csr.misa with
    | Some v -> v
    | None -> Alcotest.fail "misa unimplemented"
  in
  let has b = v land (1 lsl b) <> 0 in
  Alcotest.(check bool) "MXL=RV32" true (v land 0x4000_0000 <> 0);
  Alcotest.(check bool) "I" true (has 8);
  Alcotest.(check bool) "M" true (has 12);
  Alcotest.(check bool) "A" true (has 0);
  Alcotest.(check bool) "F" true (has 5);
  Alcotest.(check bool) "C" true (has 2);
  (* a restricted machine must not over-advertise *)
  let m' =
    Machine.create
      ~config:{ Machine.default_config with
                Machine.isa = [ Isa_module.I; Isa_module.M; Isa_module.Zicsr ] }
      ()
  in
  match Arch_state.csr_read m'.Machine.state Csr.misa with
  | Some v' ->
      Alcotest.(check bool) "restricted: no A" true (v' land 1 = 0);
      Alcotest.(check bool) "restricted: no F" true (v' land (1 lsl 5) = 0);
      Alcotest.(check bool) "restricted: M kept" true (v' land (1 lsl 12) <> 0)
  | None -> Alcotest.fail "misa unimplemented"

(* ---------------- reservation lifetime ---------------- *)

(* LR, then a synchronous trap (ecall): the SC after mret must fail.
   Exit status = sc result - 1, so success means the SC wrote rd=1. *)
let test_lr_trap_sc_fails () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  la   t0, handler
  csrw mtvec, t0
  la   a0, cell
  lr.w a1, (a0)
  ecall
  sc.w a2, a1, (a0)
  addi a2, a2, -1
  li   t1, 0x00100000
  sw   a2, 0(t1)
handler:
  csrr t2, mepc
  addi t2, t2, 4
  csrw mepc, t2
  mret
  .data
cell:
  .word 7
|}
  in
  List.iter
    (fun e ->
      let _, stop = run_engine e p in
      check_exit_ok (e.Engines.name ^ ": sc after trap fails") stop)
    engines

(* LR, then an asynchronous interrupt (self-IPI through the CLINT,
   taken during the WFI): the SC after the handler returns must fail. *)
let test_lr_interrupt_sc_fails () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t0, 8
  csrw mie, t0
  csrs mstatus, t0
  la   a0, cell
  lr.w a1, (a0)
  li   t1, 1
  li   t2, 0x02000000
  sw   t1, 0(t2)
  wfi
  sc.w a2, a1, (a0)
  addi a2, a2, -1
  li   t1, 0x00100000
  sw   a2, 0(t1)
handler:
  li   t3, 0x02000000
  sw   x0, 0(t3)
  mret
  .data
cell:
  .word 7
|}
  in
  List.iter
    (fun e ->
      let _, stop = run_engine e p in
      check_exit_ok (e.Engines.name ^ ": sc after interrupt fails") stop)
    engines

let test_reservation_copy_restore () =
  let st = Arch_state.create () in
  st.Arch_state.reservation <- Some 0x8000_0040;
  let c = Arch_state.copy st in
  Alcotest.(check bool) "copy keeps reservation" true
    (c.Arch_state.reservation = Some 0x8000_0040);
  st.Arch_state.reservation <- None;
  Arch_state.restore st c;
  Alcotest.(check bool) "restore keeps reservation" true
    (st.Arch_state.reservation = Some 0x8000_0040)

(* Machine-level fork consistency: snapshot between LR and SC, run to
   the end, restore, run again — both runs must agree bit-for-bit
   (the snapshot carries the live reservation of every hart). *)
let test_reservation_machine_snapshot () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  la   a0, cell
  li   a1, 25
  lr.w a2, (a0)
  sc.w a3, a1, (a0)
  lw   a4, 0(a0)
  sub  a0, a4, a1
  add  a0, a0, a3
  li   t1, 0x00100000
  sw   a0, 0(t1)
  .data
cell:
  .word 7
|}
  in
  let config = with_harts 2 Machine.default_config in
  let m = Machine.create ~config () in
  S4e_asm.Program.load_machine p m;
  (* run just past the LR of hart 0: la (2 insns) + li + lr.w *)
  let stop1 = Machine.run m ~fuel:4 in
  Alcotest.(check string) "paused" "out of fuel" (stop_str stop1);
  Alcotest.(check bool) "reservation live at snapshot" true
    (m.Machine.harts.(0).Machine.hx_state.Arch_state.reservation <> None);
  let snap = Machine.snapshot m in
  let stop2 = Machine.run m ~fuel:1_000_000 in
  let d2 = Machine.state_digest m in
  Machine.restore m snap;
  let stop3 = Machine.run m ~fuel:1_000_000 in
  let d3 = Machine.state_digest m in
  Alcotest.(check string) "same stop" (stop_str stop2) (stop_str stop3);
  Alcotest.(check string) "same digest" (Digest.to_hex d2) (Digest.to_hex d3);
  check_exit_ok "sc succeeds" stop2

(* ---------------- WFI + IPI ---------------- *)

(* Hart 1 sleeps in WFI with only MSIE enabled; hart 0 sends the IPI
   through the CLINT.  Pre-SMP semantics would have declared Wfi_halt.
   Hart 1 acknowledges by writing 42; hart 0 exits with status
   flag - 42. *)
let test_wfi_wakes_on_ipi () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  csrr t0, mhartid
  la   s0, flag
  li   s1, 0x02000000
  bne  t0, x0, hart1
  li   t1, 1
  sw   t1, 4(s1)
wait:
  lw   a0, 0(s0)
  beq  a0, x0, wait
  addi a0, a0, -42
  li   t1, 0x00100000
  sw   a0, 0(t1)
hart1:
  li   t1, 8
  csrw mie, t1
sleep:
  lw   t2, 4(s1)
  bne  t2, x0, woke
  wfi
  j    sleep
woke:
  sw   x0, 4(s1)
  li   t2, 42
  sw   t2, 0(s0)
halt:
  j halt
  .data
flag:
  .word 0
|}
  in
  List.iter
    (fun e ->
      let _, stop = run_engine ~map:(with_harts 2) e p in
      check_exit_ok (e.Engines.name ^ ": wfi wakes on IPI") stop)
    engines

(* A lone parked hart with nothing able to wake it is still a halt. *)
let test_wfi_halt_when_unwakeable () =
  let p = S4e_asm.Assembler.assemble_exn {|
_start:
  wfi
|} in
  let _, stop = run_program (with_harts 2 Machine.default_config) p in
  Alcotest.(check string) "both harts sleep forever" "halted in wfi"
    (stop_str stop)

(* ---------------- SMP differential ---------------- *)

let digest_of ?(include_time = true) ?(include_instret = true) m =
  Digest.to_hex (Machine.state_digest ~include_time ~include_instret m)

(* All engines agree on the full digest of both SMP workloads at a
   fixed slice. *)
let test_smp_engines_agree () =
  List.iter
    (fun (wname, p) ->
      let fuel = Smp.fuel ~harts:2 ~rounds:8 in
      match engines with
      | [] -> assert false
      | { Engines.name = ref_name; _ } as ref_engine :: rest ->
          let mr, stopr = run_engine ~fuel ~map:(with_harts 2) ref_engine p in
          check_exit_ok (wname ^ " " ^ ref_name) stopr;
          let dr = digest_of mr in
          List.iter
            (fun ({ Engines.name; _ } as e) ->
              let m, stop = run_engine ~fuel ~map:(with_harts 2) e p in
              Alcotest.(check string)
                (Printf.sprintf "%s: %s vs %s stop" wname name ref_name)
                (stop_str stopr) (stop_str stop);
              Alcotest.(check string)
                (Printf.sprintf "%s: %s vs %s digest" wname name ref_name)
                dr (digest_of m))
            rest)
    (Smp.suite ~harts:2 ~rounds:8)

(* Scheduler-slice invariance.  The IPI ring is deterministic down to
   instret and mtime, so the full digest must match across slices; the
   spinlock's spin counts depend on the interleaving, so its digest is
   compared with time and instret masked. *)
let slices = [ 64; 256; 1024; 4096 ]

let test_ipi_slice_invariant () =
  List.iter
    (fun harts ->
      let _, p = Smp.ipi_ring ~harts ~rounds:8 in
      let fuel = Smp.fuel ~harts ~rounds:8 in
      let digests =
        List.map
          (fun slice ->
            let m, stop =
              run_program ~fuel (with_harts ~slice harts Machine.default_config) p
            in
            check_exit_ok (Printf.sprintf "ipi %d harts slice %d" harts slice) stop;
            digest_of m)
          slices
      in
      match digests with
      | d :: rest ->
          List.iteri
            (fun i d' ->
              Alcotest.(check string)
                (Printf.sprintf "ipi %d harts: slice %d vs %d" harts
                   (List.nth slices (i + 1)) (List.hd slices))
                d d')
            rest
      | [] -> assert false)
    [ 2; 4 ]

let test_spinlock_slice_invariant () =
  List.iter
    (fun harts ->
      let _, p = Smp.spinlock ~harts ~rounds:8 in
      let fuel = Smp.fuel ~harts ~rounds:8 in
      let digests =
        List.map
          (fun slice ->
            let m, stop =
              run_program ~fuel (with_harts ~slice harts Machine.default_config) p
            in
            check_exit_ok
              (Printf.sprintf "spinlock %d harts slice %d" harts slice) stop;
            digest_of ~include_time:false ~include_instret:false m)
          slices
      in
      match digests with
      | d :: rest ->
          List.iter
            (fun d' ->
              Alcotest.(check string)
                (Printf.sprintf "spinlock %d harts: relaxed digest" harts)
                d d')
            rest
      | [] -> assert false)
    [ 2; 4 ]

(* Both workloads complete at 4 harts under every engine. *)
let test_four_harts_complete () =
  List.iter
    (fun (wname, p) ->
      let fuel = Smp.fuel ~harts:4 ~rounds:8 in
      List.iter
        (fun e ->
          let _, stop = run_engine ~fuel ~map:(with_harts 4) e p in
          check_exit_ok
            (Printf.sprintf "%s at 4 harts (%s)" wname e.Engines.name) stop)
        engines)
    (Smp.suite ~harts:4 ~rounds:8)

(* Staged fuel must interleave exactly like a single run: drip-feed the
   scheduler and compare against one uninterrupted execution. *)
let test_staged_fuel_matches () =
  let _, p = Smp.ipi_ring ~harts:2 ~rounds:8 in
  let fuel = Smp.fuel ~harts:2 ~rounds:8 in
  let config = with_harts 2 Machine.default_config in
  let m1, stop1 = run_program ~fuel config p in
  let m2 = Machine.create ~config () in
  S4e_asm.Program.load_machine p m2;
  let rec drip () =
    match Machine.run m2 ~fuel:777 with
    | Machine.Out_of_fuel -> drip ()
    | stop -> stop
  in
  let stop2 = drip () in
  Alcotest.(check string) "stop" (stop_str stop1) (stop_str stop2);
  Alcotest.(check string) "digest" (digest_of m1) (digest_of m2)

(* ---------------- LR/SC/AMO fuzz (single hart) ---------------- *)

(* The pre-SMP torture suite never generated atomics; fuzz them across
   the engine matrix now that reservations interact with traps. *)
let prop_amo_differential =
  prop "torture(A): all engines agree" seed_gen (fun seed ->
      let cfg =
        { Torture.default_config with
          Torture.seed;
          Torture.isa = [ Isa_module.I; Isa_module.M; Isa_module.A ] }
      in
      let p = Torture.generate cfg in
      let fuel = Torture.fuel_bound cfg in
      match engines with
      | [] -> assert false
      | ref_engine :: rest ->
          let mr, stopr = run_engine ~fuel ref_engine p in
          let dr = digest_of mr in
          List.for_all
            (fun e ->
              let m, stop = run_engine ~fuel e p in
              stop_str stop = stop_str stopr && digest_of m = dr)
            rest)

let () =
  Alcotest.run "smp"
    [ ( "identity",
        [ Alcotest.test_case "mhartid csr per hart" `Quick test_mhartid_csr;
          Alcotest.test_case "mhartid program" `Quick test_mhartid_program;
          Alcotest.test_case "misa advertises isa" `Quick test_misa ] );
      ( "reservation",
        [ Alcotest.test_case "sc fails after trap" `Quick test_lr_trap_sc_fails;
          Alcotest.test_case "sc fails after interrupt" `Quick
            test_lr_interrupt_sc_fails;
          Alcotest.test_case "copy/restore keep reservation" `Quick
            test_reservation_copy_restore;
          Alcotest.test_case "machine snapshot fork" `Quick
            test_reservation_machine_snapshot ] );
      ( "wfi",
        [ Alcotest.test_case "wakes on IPI" `Quick test_wfi_wakes_on_ipi;
          Alcotest.test_case "halts when unwakeable" `Quick
            test_wfi_halt_when_unwakeable ] );
      ( "differential",
        [ Alcotest.test_case "engines agree (2 harts)" `Quick
            test_smp_engines_agree;
          Alcotest.test_case "ipi slice-invariant" `Quick
            test_ipi_slice_invariant;
          Alcotest.test_case "spinlock slice-invariant" `Quick
            test_spinlock_slice_invariant;
          Alcotest.test_case "4 harts complete" `Quick test_four_harts_complete;
          Alcotest.test_case "staged fuel" `Quick test_staged_fuel_matches;
          prop_amo_differential ] ) ]
