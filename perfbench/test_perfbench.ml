(* Tests for the benchmark's own arithmetic: percentiles and their
   sample counts, span self time, journal-line gap attribution,
   fault-kind parsing, and the seeded programs' expected results. *)

open Perfbench
module Fault = S4e_fault.Fault
module Journal = S4e_fault.Journal
module Campaign = S4e_fault.Campaign

let close = Alcotest.float 1e-9

(* ---- percentiles ---- *)

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_percentile () =
  let xs = List.init 1000 (fun i -> float_of_int (1000 - i)) in
  let p50 = Stats.percentile 50. xs and p99 = Stats.percentile 99. xs in
  Alcotest.check close "p50 is the 500th smallest" 500. p50.Stats.value;
  Alcotest.check close "p99 is the 990th smallest" 990. p99.Stats.value;
  Alcotest.(check int) "sample count" 1000 p99.Stats.samples;
  Alcotest.(check int) "samples beyond p99" 10 p99.Stats.beyond;
  Alcotest.(check bool) "p99 of 1000 is reportable" true (Stats.reportable p99);
  let short = Stats.percentile 99. (List.init 999 float_of_int) in
  Alcotest.(check int) "999 samples leave 9 beyond p99" 9 short.Stats.beyond;
  Alcotest.(check bool) "p99 of 999 is not" false (Stats.reportable short);
  Alcotest.(check int) "samples needed for p99" 1000 (Stats.samples_for 99.);
  Alcotest.(check int) "samples needed for p90" 100 (Stats.samples_for 90.);
  let one = Stats.percentile 99. [ 7. ] in
  Alcotest.check close "a single sample is every percentile" 7. one.Stats.value

(* ---- span self time ---- *)

let span ?(tid = 1) name ts dur = { Spans.name; cat = "c"; tid; ts; dur }

let self_of spans name =
  List.assoc name
    (List.map (fun (s, self) -> (s.Spans.name, self)) (Spans.self_times spans))

let test_self_time () =
  let spans =
    [ span "child2" 50. 10.; span "root" 0. 100.; span "child1" 10. 30.;
      span "grandchild" 15. 5.; span ~tid:2 "other-lane" 20. 50. ]
  in
  Alcotest.check close "root minus its direct children" 60. (self_of spans "root");
  Alcotest.check close "child minus grandchild" 25. (self_of spans "child1");
  Alcotest.check close "leaf" 5. (self_of spans "grandchild");
  Alcotest.check close "leaf after a sibling" 10. (self_of spans "child2");
  Alcotest.check close "another tid never nests" 50. (self_of spans "other-lane");
  let layer s = if s.Spans.tid = 2 then None else Some "l" in
  Alcotest.(check (list (pair string close)))
    "self times of one tid sum to the root's duration" [ ("l", 100.) ]
    (Spans.self_by_layer layer spans)

let test_self_time_clamps () =
  (* a child rounded past its parent's end is charged only its overlap *)
  let spans = [ span "root" 0. 10.; span "child" 4. 6.2 ] in
  Alcotest.check close "overlap only" 4. (self_of spans "root");
  let back_to_back = [ span "a" 0. 10.; span "b" 10. 5. ] in
  Alcotest.check close "adjacent spans are siblings" 10. (self_of back_to_back "a")

let test_trace_roundtrip () =
  let t = S4e_obs.Trace_events.create () in
  S4e_obs.Trace_events.thread_name t ~tid:3 "lane";
  S4e_obs.Trace_events.complete t ~name:"outer" ~cat:"x" ~tid:3 ~ts_us:1.
    ~dur_us:10. ();
  S4e_obs.Trace_events.complete t ~name:"inner" ~cat:"y" ~tid:3 ~ts_us:2.
    ~dur_us:4. ();
  S4e_obs.Trace_events.instant t ~name:"tick" ~cat:"z" ~tid:3 ();
  match Spans.of_trace_json (S4e_obs.Trace_events.contents t) with
  | Error e -> Alcotest.fail e
  | Ok spans ->
      Alcotest.(check (list string)) "complete events only" [ "outer"; "inner" ]
        (List.map (fun s -> s.Spans.name) spans);
      Alcotest.check close "outer self" 6. (self_of spans "outer")

(* ---- journal lines ---- *)

let header =
  Journal.header_line
    { Journal.j_seed = 1; j_total = 3; j_shard = (0, 1); j_program = "00" }

let record i kind outcome =
  Journal.record_line
    { Journal.r_index = i;
      r_fault = { Fault.loc = Fault.Gpr (S4e_isa.Reg.a0, 3); kind };
      r_outcome = outcome }

let test_kind_parsing () =
  let check name line want =
    match Gaps.classify line with
    | Ok got ->
        Alcotest.(check bool) name true (got = want)
    | Error e -> Alcotest.fail e
  in
  check "transient sdc" (record 0 (Fault.Transient 42) Campaign.Sdc)
    (Gaps.Transient, "sdc");
  check "permanent hung" (record 1 Fault.Permanent Campaign.Hung)
    (Gaps.Permanent, "hung");
  Alcotest.(check bool) "a header is not a record" true
    (Result.is_error (Gaps.classify header));
  Alcotest.(check bool) "garbage is rejected" true
    (Result.is_error (Gaps.classify "{\"index\": 0"))

let test_gap_attribution () =
  let lines =
    [ (10.0, header);
      (10.5, record 2 (Fault.Transient 7) Campaign.Masked);
      (10.6, record 0 Fault.Permanent Campaign.Crashed);
      (10.9, record 1 (Fault.Transient 9) Campaign.Masked) ]
  in
  match Gaps.attribute lines with
  | Error e -> Alcotest.fail e
  | Ok samples ->
      Alcotest.(check int) "the first record is not a sample" 2
        (List.length samples);
      let s1 = List.nth samples 0 and s2 = List.nth samples 1 in
      Alcotest.check (Alcotest.float 1e-6) "gap charged to the later line" 0.1
        s1.Gaps.gap_s;
      Alcotest.(check bool) "kind of the later line" true
        (s1.Gaps.kind = Gaps.Permanent && s1.Gaps.outcome = "crashed");
      Alcotest.check (Alcotest.float 1e-6) "second gap" 0.3 s2.Gaps.gap_s;
      Alcotest.check (Alcotest.float 1e-6) "time share" 0.75
        (Gaps.time_share samples "masked");
      Alcotest.check close "absent outcome" 0. (Gaps.time_share samples "hung");
      Alcotest.(check bool) "a stream without a header is an error" true
        (Result.is_error (Gaps.attribute (List.tl lines)));
      Alcotest.(check bool) "a bad record is an error" true
        (Result.is_error (Gaps.attribute (lines @ [ (11., "nonsense") ])))

(* ---- seeded programs ---- *)

let test_models () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926
    (Programs.crc32_model (List.map Char.code (List.of_seq (String.to_seq "123456789"))));
  Alcotest.(check int) "branchy with the bench constants" 217795364
    (Programs.branchy_model ~x:0x55 ~r:5)

let test_programs_run () =
  List.iter
    (fun seed ->
      List.iter
        (fun (p : Programs.t) ->
          let prog = S4e_asm.Assembler.assemble_exn p.Programs.source in
          let m = S4e_cpu.Machine.create () in
          S4e_asm.Program.load_machine prog m;
          match S4e_cpu.Machine.run m ~fuel:10_000_000 with
          | S4e_cpu.Machine.Exited c ->
              Alcotest.(check int)
                (Printf.sprintf "%s, seed %d" p.Programs.name seed)
                p.Programs.expect (c land 0xFFFF_FFFF)
          | _ -> Alcotest.failf "%s did not exit" p.Programs.name)
        (Programs.suite ~seed))
    [ 1; 2; 3 ]

let test_seeding () =
  let sources seed = List.map (fun p -> p.Programs.source) (Programs.suite ~seed) in
  Alcotest.(check bool) "same seed, same inputs" true (sources 5 = sources 5);
  Alcotest.(check bool) "another seed, other inputs" true (sources 5 <> sources 6)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile and sample counts" `Quick test_percentile ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "self time clamps overlap" `Quick test_self_time_clamps;
          Alcotest.test_case "trace round trip" `Quick test_trace_roundtrip ] );
      ( "gaps",
        [ Alcotest.test_case "fault-kind parsing" `Quick test_kind_parsing;
          Alcotest.test_case "gap attribution" `Quick test_gap_attribution ] );
      ( "programs",
        [ Alcotest.test_case "reference models" `Quick test_models;
          Alcotest.test_case "programs exit as modelled" `Quick test_programs_run;
          Alcotest.test_case "seeding" `Quick test_seeding ] ) ]
