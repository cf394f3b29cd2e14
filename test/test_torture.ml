(* Torture generator tests: determinism, termination, ISA respect,
   compressed emission, and suite well-formedness. *)

open S4e_isa
module Torture = S4e_torture.Torture
module Suites = S4e_torture.Suites
module Machine = S4e_cpu.Machine

let prop ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let run_cfg cfg =
  let p = Torture.generate cfg in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  (p, m, Machine.run m ~fuel:(Torture.fuel_bound cfg))

let test_deterministic () =
  let cfg = { Torture.default_config with seed = 7 } in
  let p1 = Torture.generate cfg and p2 = Torture.generate cfg in
  Alcotest.(check bool) "same bytes" true (p1 = p2);
  let p3 = Torture.generate { cfg with seed = 8 } in
  Alcotest.(check bool) "different seed differs" true (p1 <> p3)

let test_terminates_with_exit () =
  let _, _, stop = run_cfg { Torture.default_config with seed = 123 } in
  match stop with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.failf "expected exit, got %a" Machine.pp_stop_reason stop

let test_compressed_variant_shrinks () =
  let cfg = { Torture.default_config with seed = 5 } in
  let plain = Torture.generate cfg in
  let rvc = Torture.generate { cfg with compress = true } in
  Alcotest.(check bool) "rvc image smaller" true
    (S4e_asm.Program.size rvc < S4e_asm.Program.size plain)

let mnemonics_of p =
  let m = Machine.create () in
  let seen = Hashtbl.create 64 in
  let _ =
    S4e_cpu.Hooks.on_insn m.Machine.hooks (fun _ i ->
        Hashtbl.replace seen (Instr.mnemonic i) ())
  in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:1_000_000 in
  seen

let props =
  [ prop "every seed terminates via the syscon" seed_gen (fun seed ->
        let _, _, stop = run_cfg { Torture.default_config with seed } in
        match stop with Machine.Exited _ -> true | _ -> false);
    prop "determinism across TB-cache configs" seed_gen (fun seed ->
        let p = Torture.generate { Torture.default_config with seed } in
        let run config =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          (Machine.run m ~fuel:100_000, Machine.instret m)
        in
        run Machine.default_config
        = run { Machine.default_config with Machine.use_tb_cache = false });
    prop ~count:15 "RV32I-only config emits only I instructions" seed_gen
      (fun seed ->
        let cfg =
          { Torture.default_config with
            seed; isa = [ Isa_module.I ]; segments = 10 }
        in
        let p = Torture.generate cfg in
        let seen = mnemonics_of p in
        let universe = Isa_module.universe [ Isa_module.I ] in
        Hashtbl.fold (fun m () acc -> acc && List.mem m universe) seen true);
    prop ~count:15 "compressed programs behave like uncompressed ones"
      seed_gen
      (fun seed ->
        (* same seed => same instruction stream; both must exit (values
           may legitimately differ because pc-dependent behaviour is
           absent by construction, so they must in fact agree) *)
        let base = { Torture.default_config with seed; segments = 10 } in
        let p1 = Torture.generate base in
        let p2 = Torture.generate { base with compress = true } in
        let run p =
          let m = Machine.create () in
          S4e_asm.Program.load_machine p m;
          match Machine.run m ~fuel:100_000 with
          | Machine.Exited c -> Some c
          | _ -> None
        in
        match (run p1, run p2) with
        | Some a, Some b -> a = b
        | _ -> false) ]

let test_suites_assemble_and_pass () =
  let isa = Machine.default_config.Machine.isa in
  let all =
    Suites.arch_suite ~isa @ Suites.unit_suite ~isa
    @ Suites.torture_suite ~isa ~seeds:[ 1; 2 ]
  in
  Alcotest.(check bool) "several programs" true (List.length all >= 8);
  List.iter
    (fun (name, p) ->
      let m = Machine.create () in
      S4e_asm.Program.load_machine p m;
      match Machine.run m ~fuel:Suites.fuel with
      | Machine.Exited _ -> ()
      | stop ->
          Alcotest.failf "suite program %s: %a" name Machine.pp_stop_reason
            stop)
    all

let test_arch_suite_exits_zero () =
  let isa = Machine.default_config.Machine.isa in
  List.iter
    (fun (name, p) ->
      let m = Machine.create () in
      S4e_asm.Program.load_machine p m;
      match Machine.run m ~fuel:Suites.fuel with
      | Machine.Exited 0 -> ()
      | stop ->
          Alcotest.failf "%s should pass with 0: %a" name
            Machine.pp_stop_reason stop)
    (Suites.arch_suite ~isa)

let () =
  Alcotest.run "torture"
    [ ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "terminates" `Quick test_terminates_with_exit;
          Alcotest.test_case "compressed shrinks" `Quick
            test_compressed_variant_shrinks ] );
      ("properties", props);
      ( "suites",
        [ Alcotest.test_case "assemble and run" `Quick
            test_suites_assemble_and_pass;
          Alcotest.test_case "arch suite passes" `Quick
            test_arch_suite_exits_zero ] ) ]
