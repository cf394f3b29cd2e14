(* The campaign-path benchmark.

     main.exe --workload run-suite|campaign|fleet --seed N --seconds S
              --trace 0|1 [--out DIR] [--inject-mismatch]

   One run repeats the workload's pass — a whole user session from
   program source to classified output — until [--seconds] of passes
   have been measured, then prints every metric by name with its unit
   and, as the last line, one JSON object with the fields [correct],
   [attempted], [failed] and [metrics].  [--trace 0] reports the
   end-to-end metrics; [--trace 1] alternates untraced and traced
   passes and reports the per-layer metrics, the layers' self times
   from the traced passes, and the tracing overhead.

   Every layer is measured from outside: the benchmark times calls into
   public functions and reads the telemetry the program already exposes.
   Campaigns run at [-j 1] and the fleet uses one worker, so on a small
   host the figures measure the program, not the scheduler.

   Outputs are checked on every run by untimed gates; a mismatch, or an
   exact count that differs between passes over the same inputs (the
   determinism canary), fails the command.  [--inject-mismatch]
   corrupts one expected value so the gates can be seen to fire.
   METRICS.md beside this file defines every metric. *)

module M = S4e_cpu.Machine
module P = S4e_asm.Program
module Obs = S4e_obs
module Flows = S4e_core.Flows
module C = S4e_fault.Campaign
module Journal = S4e_fault.Journal
module F = S4e_fleet
module J = S4e_fleet.Json
open Perfbench

exception Gate of string

let fail fmt = Printf.ksprintf (fun m -> raise (Gate m)) fmt
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Tracing: one sink per traced pass, shared with the program's own
   [?trace] telemetry so every span is on one clock. *)

let sink : Obs.Trace_events.t option ref = ref None

let timed ~cat ~name f =
  let t0 = now () in
  let r =
    match !sink with
    | None -> f ()
    | Some s -> Obs.Trace_events.span s ~name ~cat f
  in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* What one pass measured. *)

type pass = {
  values : (string, float) Hashtbl.t;  (** per-layer totals *)
  samples : (string, float list) Hashtbl.t;  (** end-to-end samples *)
  counts : (string, string) Hashtbl.t;  (** the determinism canary *)
  mutable gaps : Gaps.sample list;
  mutable checks : (unit -> unit) list;  (** untimed gates, run after *)
  mutable attempted : int;
  mutable failed : int;
  mutable wall : float;
  mutable layers : (string * float) list;  (** traced passes: self µs *)
  mutable input : int;  (** index of the pass's inputs within the run *)
  mutable probe : float;  (** {!Host.probe} time around the pass, s *)
  mutable probes : (string * float) list;
      (** samples normalised by their own probe time, not [probe] *)
}

let new_pass () =
  { values = Hashtbl.create 32; samples = Hashtbl.create 8;
    counts = Hashtbl.create 32; gaps = []; checks = []; attempted = 0;
    failed = 0; wall = 0.; layers = []; input = 0; probe = Host.reference_s;
    probes = [] }

let get p k = Option.value (Hashtbl.find_opt p.values k) ~default:0.
let add p k v = Hashtbl.replace p.values k (v +. get p k)
let samples p k = Option.value (Hashtbl.find_opt p.samples k) ~default:[]
let sample p k v = Hashtbl.replace p.samples k (v :: samples p k)
let defer p check = p.checks <- check :: p.checks

let count p k v =
  add p k (float_of_int v);
  Hashtbl.replace p.counts k (Printf.sprintf "%.0f" (get p k))

let snapshot reg =
  List.map
    (fun (k, v) ->
      match v with
      | Obs.Metrics.Int i -> (k, float_of_int i)
      | Obs.Metrics.Float f -> (k, f))
    (Obs.Metrics.snapshot reg)

let lookup k l = int_of_float (Option.value (List.assoc_opt k l) ~default:0.)

(* ------------------------------------------------------------------ *)
(* Program runs, as [s4e run] does them: cold on a fresh machine, warm
   after [reset] with the TB cache kept, and restored from the pre-run
   snapshot with the TB cache flushed.  The warm and restored runs must
   end in the cold run's exit status and state digest. *)

type prog = {
  name : string;
  prog : P.t;
  expect : int;  (** exit status *)
  config : M.config;
  fuel : int;
  rig : bool;  (** armed with {!Flows.arm_device_rig} *)
}

let prog_of name prog expect =
  { name; prog; expect; config = M.default_config; fuel = 10_000_000;
    rig = false }

let check_stop pr what stop =
  match stop with
  | M.Exited c when c land 0xFFFF_FFFF = pr.expect -> ()
  | s ->
      fail "%s: %s %s, expected exit %d" pr.name what
        (Format.asprintf "%a" M.pp_stop_reason s)
        pr.expect

let device_traffic m = (S4e_soc.Vnet.stats m.M.vnet, S4e_soc.Dma.stats m.M.dma)

type run = {
  load_s : float;  (** create + load *)
  cold_s : float;  (** create + load + cold run *)
  warm_s : float;
  warm_insns : int;
  null_mutants : float list;  (** restore + restored run + digest, s *)
}

(* [s4e run] goes through [Flows.run]; its result must agree with the
   benchmark's own cold run. *)
let check_flows_run pr ~instret golden () =
  let r =
    Flows.run ~config:pr.config ~device_traffic:pr.rig ~fuel:pr.fuel pr.prog
  in
  check_stop pr "Flows.run" r.Flows.rr_stop;
  if r.Flows.rr_instret <> instret then
    fail "%s: Flows.run retired %d instructions, the cold run %d" pr.name
      r.Flows.rr_instret instret;
  Option.iter
    (fun dev ->
      let want = "digest=" ^ String.sub (Digest.to_hex golden) 0 12 in
      if not (String.ends_with ~suffix:want dev) then
        fail "%s: Flows.run device summary %S does not end in %s" pr.name dev
          want)
    r.Flows.rr_dev

let run_program ~mismatch ~first ~restores p pr =
  let arm m = if pr.rig then Flows.arm_device_rig m in
  let m, t_load =
    timed ~cat:"cpu" ~name:"create_load" (fun () ->
        let m = M.create ~config:pr.config () in
        P.load_machine pr.prog m;
        arm m;
        m)
  in
  let reg = Obs.Metrics.create () in
  M.register_metrics ~prefix:"" m reg;
  let snap, t_snap = timed ~cat:"cpu" ~name:"snapshot" (fun () -> M.snapshot m) in
  let stop, t_cold =
    timed ~cat:"cpu" ~name:"cold_exec" (fun () -> M.run m ~fuel:pr.fuel)
  in
  check_stop pr "cold run" stop;
  let cold = snapshot reg and traffic = device_traffic m in
  let instret = M.instret m in
  let digest () = timed ~cat:"cpu" ~name:"digest" (fun () -> M.state_digest m) in
  let golden, t_d1 = digest () in
  if first then defer p (check_flows_run pr ~instret golden);
  let golden = if mismatch then Digest.string golden else golden in
  let (), t_reset =
    timed ~cat:"cpu" ~name:"reset_reload" (fun () ->
        M.reset m ~pc:pr.prog.P.entry;
        List.iter
          (fun c -> if not c.P.is_code then M.load_string m c.P.addr c.P.bytes)
          pr.prog.P.chunks;
        arm m)
  in
  let i0 = M.instret m in
  let stop, t_warm =
    timed ~cat:"cpu" ~name:"warm_exec" (fun () -> M.run m ~fuel:pr.fuel)
  in
  check_stop pr "warm run" stop;
  let warm = snapshot reg and warm_insns = M.instret m - i0 in
  let d, t_d2 = digest () in
  if pr.rig then begin
    (* Known mismatch: [Machine.reset] keeps the DMA engine's burst and
       byte counters, which [state_digest] covers, so after DMA traffic
       a reset machine never digests like a fresh one.  The rig's warm
       run is checked by its device traffic instead: the same
       deliveries and drops, and the same DMA transfer again. *)
    let (v0, d0), (v1, d1) = (traffic, device_traffic m) in
    let again =
      { S4e_soc.Dma.dma_bursts = d1.S4e_soc.Dma.dma_bursts - d0.S4e_soc.Dma.dma_bursts;
        dma_bytes = d1.S4e_soc.Dma.dma_bytes - d0.S4e_soc.Dma.dma_bytes }
    in
    if v1 <> v0 || again <> d0 || mismatch then
      fail "%s: warm run device traffic differs from the cold run" pr.name
  end
  else if d <> golden then
    fail "%s: warm run digest differs from the cold run" pr.name;
  (* each restored rerun is a null mutant: restore, run, digest *)
  let restored () =
    let (), t_restore = timed ~cat:"cpu" ~name:"restore" (fun () -> M.restore m snap) in
    let stop, t_rest =
      timed ~cat:"cpu" ~name:"restored_exec" (fun () -> M.run m ~fuel:pr.fuel)
    in
    check_stop pr "restored run" stop;
    let d, t_d = digest () in
    if d <> golden then
      fail "%s: restored run digest differs from the cold run" pr.name;
    add p "cpu.restore_us" (t_restore *. 1e6 /. float_of_int restores);
    add p "cpu.restored_exec_ms" (t_rest *. 1e3 /. float_of_int restores);
    add p "digest_s" t_d;
    add p "digests" 1.;
    t_restore +. t_rest +. t_d
  in
  let null_mutants = List.init restores (fun _ -> restored ()) in
  add p "cpu.create_load_us" (t_load *. 1e6);
  add p "cpu.snapshot_us" (t_snap *. 1e6);
  add p "cpu.cold_exec_ms" (t_cold *. 1e3);
  add p "cpu.reset_us" (t_reset *. 1e6);
  add p "cpu.warm_exec_ms" (t_warm *. 1e3);
  add p "digest_s" (t_d1 +. t_d2);
  add p "digests" 2.;
  count p "tb.misses" (lookup "tb.misses" cold);
  count p "tb.chain_hits" (lookup "tb.chain_hits" cold);
  List.iter
    (fun k -> count p k (lookup k warm - lookup k cold))
    [ "sb.promotions"; "sb.execs"; "mem.tlb_misses" ];
  p.attempted <- p.attempted + 2 + restores;
  { load_s = t_load; cold_s = t_load +. t_cold; warm_s = t_warm; warm_insns;
    null_mutants }

(* Runs the programs [reps] times; each repetition is one sample of
   cold_run_ms and warm_mips.  Returns the first repetition's runs. *)
let run_programs ~mismatch ~first ~reps ~restores p progs =
  let rep_once first =
    let runs = List.map (run_program ~mismatch ~first ~restores p) progs in
    let total f = List.fold_left (fun a r -> a +. f r) 0. runs in
    sample p "cold_run_ms" (total (fun r -> r.cold_s) *. 1e3);
    sample p "warm_mips"
      (total (fun r -> float_of_int r.warm_insns) /. total (fun r -> r.warm_s) /. 1e6);
    runs
  in
  let runs = rep_once first in
  for _ = 2 to reps do ignore (rep_once false) done;
  add p "reps" (float_of_int reps);
  runs

let assemble p (src : Programs.t) =
  let prog, t =
    timed ~cat:"asm" ~name:"assemble" (fun () ->
        S4e_asm.Assembler.assemble src.Programs.source)
  in
  add p "asm.assemble_us" (t *. 1e6);
  match prog with
  | Ok prog -> prog
  | Error e ->
      fail "%s: %s" src.Programs.name
        (Format.asprintf "%a" S4e_asm.Assembler.pp_error e)

(* ------------------------------------------------------------------ *)
(* run-suite: the eight bench programs, a 2-hart spinlock, and [mix]
   under the device rig.  It has no fault list; its "mutant" is the
   null mutant — a restored rerun classified by its digest — so its
   per-mutant figures are the cpu share of a forked mutant. *)

let smp_harts = 2 and smp_rounds = 64

(* restored reruns per program and pass: enough null mutants that a
   few passes hold a p99 *)
let null_mutants = 5

let run_suite ~seed ~mismatch ~first p =
  let t0 = now () in
  let progs =
    List.map
      (fun (src : Programs.t) ->
        prog_of src.Programs.name (assemble p src) src.Programs.expect)
      (Programs.suite ~seed)
  in
  let (smp_name, smp), t_smp =
    timed ~cat:"asm" ~name:"assemble" (fun () ->
        S4e_torture.Smp.spinlock ~harts:smp_harts ~rounds:smp_rounds)
  in
  add p "asm.assemble_us" (t_smp *. 1e6);
  let t_asm = now () -. t0 in
  let mix = List.find (fun pr -> pr.name = "mix") progs in
  let progs =
    progs
    @ [ { (prog_of smp_name smp 0) with
          config = { M.default_config with M.harts = smp_harts };
          fuel = S4e_torture.Smp.fuel ~harts:smp_harts ~rounds:smp_rounds };
        { mix with name = "mix+device-rig"; rig = true } ]
  in
  let runs =
    run_programs ~mismatch ~first ~reps:1 ~restores:null_mutants p progs
  in
  (* source to first instruction: the suite assembled, the first
     machine created and loaded *)
  sample p "setup_s" (t_asm +. (List.hd runs).load_s);
  let null = List.concat_map (fun r -> r.null_mutants) runs in
  List.iter (fun s -> sample p "mutant_us" (s *. 1e6)) null;
  sample p "mutants_per_s"
    (float_of_int (List.length null) /. List.fold_left ( +. ) 0. null)

(* ------------------------------------------------------------------ *)
(* Campaigns, shaped like [s4e fault PROG -n N --seed S -j 1] (no
   --fuel: 10M-instruction golden budget, automatic hang budget, default
   engine, coverage-guided GPR+code+data faults of both kinds). *)

let fault_cfg ~seed ~mutants =
  { Flows.default_fault_config with
    Flows.ff_seed = seed; ff_mutants = mutants; ff_fuel = 10_000_000;
    ff_hang_budget = Flows.Hang_auto; ff_engine = C.default_engine }

let hang_budget cfg (golden : C.signature) =
  min cfg.Flows.ff_fuel (max 10_000 (3 * golden.C.sig_instret))

let record_key (i, f, o) = (i, S4e_fault.Fault.to_string f, C.outcome_name o)

let journal_key r =
  record_key (r.Journal.r_index, r.Journal.r_fault, r.Journal.r_outcome)

let fault_telemetry p reg =
  let m = snapshot reg in
  count p "fault.mutants" (lookup "campaign.mutants" m);
  count p "fault.hangs" (lookup "campaign.hangs" m);
  count p "fault.early_exits" (lookup "campaign.early_exits" m);
  count p "fault.snapshot_forks" (lookup "campaign.snapshot_forks" m);
  count p "fault.insns" (lookup "campaign.mutant_insns.sum" m);
  count p "fault.errors" (lookup "campaign.errors" m)

let journal_gaps p lines =
  match Gaps.attribute lines with
  | Error e -> fail "journal stream: %s" e
  | Ok gaps ->
      p.gaps <- gaps @ p.gaps;
      List.iter (fun g -> sample p "mutant_us" (g.Gaps.gap_s *. 1e6)) gaps

(* A fixed stride sample of the campaign, re-classified by the naive
   re-run-from-reset engine, must get the engine's outcomes. *)
let rerun_gate ~mismatch name cfg prog (r : Flows.fault_flow_result) () =
  let all = r.Flows.ff_indexed in
  let stride = max 1 (List.length all / 64) in
  let sampled = List.filteri (fun i _ -> i mod stride = 0) all in
  let got =
    C.run_indexed ~engine:C.rerun_engine ~jobs:1
      ~fuel:(hang_budget cfg r.Flows.ff_golden)
      prog ~golden:r.Flows.ff_golden
      (List.map (fun (i, f, _) -> (i, f)) sampled)
  in
  let want =
    match List.map record_key sampled with
    | (i, f, o) :: rest when mismatch ->
        (i, f, if o = "masked" then "sdc" else "masked") :: rest
    | w -> w
  in
  if List.map record_key got <> want then
    fail "%s: the engine's outcomes differ from the re-run engine's on the \
          sampled mutants" name

(* The journal stream must record exactly the campaign's result. *)
let journal_gate name lines (r : Flows.fault_flow_result) () =
  let records =
    List.map
      (fun l ->
        match Journal.parse_record l with
        | Ok r -> r
        | Error e -> fail "%s: journal line %S: %s" name l e)
      (List.tl lines)
  in
  if List.sort compare (List.map journal_key records)
     <> List.map record_key r.Flows.ff_indexed
  then fail "%s: journal records differ from the campaign result" name;
  let summary =
    C.summarize
      (List.map (fun r -> (r.Journal.r_fault, r.Journal.r_outcome)) records)
  in
  if summary <> r.Flows.ff_summary then
    fail "%s: journal summary differs from the campaign summary" name

let outcomes_digest keys =
  List.map (fun (i, f, o) -> Printf.sprintf "%d,%s,%s" i f o) keys
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let campaign_once ~mismatch ~first p (src : Programs.t) cfg =
  let lines = ref [] in
  let reg = Obs.Metrics.create () in
  let t0 = now () in
  let prog = assemble p src in
  let r, _ =
    timed ~cat:"flows" ~name:"fault_campaign" (fun () ->
        Flows.fault_campaign ~jobs:1 ~metrics:reg ?trace:!sink
          ~on_journal_line:(fun l -> lines := (now (), l) :: !lines)
          cfg prog)
  in
  let wall = now () -. t0 in
  let name = src.Programs.name in
  let r = match r with Ok r -> r | Error e -> fail "%s: %s" name e in
  let lines = List.rev !lines in
  (match lines with
  | (t, _) :: _ -> sample p "setup_s" (t -. t0)
  | [] -> fail "%s: the campaign emitted no journal header" name);
  let n = List.length r.Flows.ff_indexed in
  if not (r.Flows.ff_complete && n = cfg.Flows.ff_mutants) then
    fail "%s: campaign incomplete (%d of %d mutants)" name n cfg.Flows.ff_mutants;
  add p "mutants" (float_of_int n);
  add p "campaign_s" wall;
  p.attempted <- p.attempted + n;
  p.failed <- p.failed + r.Flows.ff_summary.C.errors;
  journal_gaps p lines;
  fault_telemetry p reg;
  Hashtbl.replace p.counts ("outcomes." ^ name)
    (outcomes_digest (List.map record_key r.Flows.ff_indexed));
  if first then begin
    defer p (journal_gate name (List.map snd lines) r);
    defer p (rerun_gate ~mismatch name cfg prog r)
  end;
  prog

let campaign_programs = [ ("dhrystone", 600); ("stream", 600) ]

(* Cold and warm runs of a campaign's programs are a few milliseconds;
   repeating them gives their medians enough samples. *)
let health_reps = 16

let campaign ~seed ~mismatch ~first p =
  let progs =
    List.mapi
      (fun k (name, mutants) ->
        let src = Programs.find ~seed name in
        let cfg = fault_cfg ~seed:(seed + k) ~mutants in
        prog_of name (campaign_once ~mismatch ~first p src cfg) src.Programs.expect)
      campaign_programs
  in
  sample p "mutants_per_s" (get p "mutants" /. get p "campaign_s");
  ignore
    (run_programs ~mismatch:false ~first ~reps:health_reps ~restores:1 p progs)

(* ------------------------------------------------------------------ *)
(* fleet: the dhrystone campaign as one [s4e submit]-shaped job with
   many shards, served by an in-process orchestrator on loopback TCP and
   drained by one worker.  The worker runs on the benchmark's own
   domain, next to the server's threads, as two processes would share a
   core: with the worker on a second domain, every minor collection
   stops both domains, and on a 2-core host shared with other tenants
   the job's figures then spread by a third from run to run. *)

let fleet_mutants = 1200 and fleet_shards = 16

type shard_log = {
  entry : float;
  mutable header : float;
  mutable exit : float;
  mutable lines : (float * string) list;  (** newest first *)
  mutable emit_s : float;
}

(* The spec -> campaign mapping of [s4e worker]: a spec without [fuel]
   means the 10M golden budget with the automatic hang budget. *)
let spec_cfg spec =
  let fuel = J.mem_int "fuel" spec in
  { (fault_cfg
       ~seed:(Option.value (J.mem_int "seed" spec) ~default:1)
       ~mutants:(Option.value (J.mem_int "mutants" spec) ~default:100))
    with
    Flows.ff_fuel = Option.value fuel ~default:10_000_000;
    ff_hang_budget =
      (match fuel with Some _ -> Flows.Hang_fuel | None -> Flows.Hang_auto);
    ff_blind = Option.value (J.mem_bool "blind" spec) ~default:false;
    ff_engine =
      (if J.mem_str "engine" spec = Some "rerun" then C.rerun_engine
       else C.default_engine) }

(* Untimed gate: the merged journal must equal the single-process run
   of the same spec.  That run's time is kept as [fleet.ref_s], the base
   of [fleet.runner_inflation]. *)
let reference_gate ~mismatch p src spec merged () =
  let prog = assemble (new_pass ()) src in
  let t0 = now () in
  let r = Flows.fault_flow ~jobs:1 (spec_cfg spec) prog in
  add p "fleet.ref_s" (now () -. t0);
  let want = List.sort compare (List.map record_key r.Flows.ff_indexed) in
  let want = if mismatch then List.tl want else want in
  if merged <> want then
    fail "fleet: merged records differ from the single-process campaign"

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let fleet ~seed ~mismatch ~first ~out ~pass_no p =
  let src = Programs.find ~seed "dhrystone" in
  let spec =
    J.Obj
      [ ("program", J.String src.Programs.name);
        ("mutants", J.Int fleet_mutants); ("seed", J.Int seed);
        ("shards", J.Int fleet_shards) ]
  in
  let dir = Filename.concat out (Printf.sprintf "fleet-%d-%d" seed pass_no) in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let sreg = Obs.Metrics.create () and creg = Obs.Metrics.create () in
  let server = F.Server.create ~journal_dir:dir ~metrics:sreg () in
  let addr =
    match F.Server.start server (F.Http.Tcp ("127.0.0.1", 0)) with
    | Ok a -> a
    | Error e -> fail "fleet: %s" e
  in
  let ctl = F.Client.create addr in
  let request ~meth ~path ?body () =
    match F.Client.request ctl ~meth ~path ?body () with
    | Ok (s, v) when s >= 200 && s < 300 -> v
    | Ok (s, v) -> fail "fleet: %s %s: HTTP %d %s" meth path s (J.to_string v)
    | Error e -> fail "fleet: %s %s: %s" meth path e
  in
  (* the [s4e worker] runner, timed *)
  let shards = ref [] in
  let run_shard log ~spec ~shard ~resume ~emit ~cancelled =
    match J.mem_str "program" spec with
    | Some name when name = src.Programs.name -> (
        let prog = assemble p src in
        let resume_path =
          Option.map
            (fun (header, lines) ->
              let path = Filename.temp_file ~temp_dir:dir "resume" ".jsonl" in
              write_lines path (header :: lines);
              path)
            resume
        in
        let on_line l =
          let t = now () in
          if log.lines = [] then log.header <- t;
          log.lines <- (t, l) :: log.lines;
          let (), dt = timed ~cat:"fleet" ~name:"emit" (fun () -> emit l) in
          log.emit_s <- log.emit_s +. dt
        in
        let r, _ =
          timed ~cat:"flows" ~name:"fault_campaign" (fun () ->
              Flows.fault_campaign ~jobs:1 ~metrics:creg ?trace:!sink
                ?resume:resume_path ~shard ~on_journal_line:on_line ~cancelled
                (spec_cfg spec) prog)
        in
        Option.iter Sys.remove resume_path;
        match r with
        | Error e -> Error e
        | Ok r when r.Flows.ff_complete -> Ok ()
        | Ok _ -> Error "cancelled before the shard finished")
    | _ -> Error "spec names an unknown program"
  in
  let runner ~spec ~shard ~resume ~emit ~cancelled =
    let log =
      { entry = now (); header = nan; exit = nan; lines = []; emit_s = 0. }
    in
    shards := log :: !shards;
    let r, _ =
      timed ~cat:"fleet" ~name:"runner" (fun () ->
          run_shard log ~spec ~shard ~resume ~emit ~cancelled)
    in
    log.exit <- now ();
    r
  in
  let probes_before = [ Host.probe (); Host.probe () ] in
  let t0 = now () in
  let reply, t_submit =
    timed ~cat:"fleet" ~name:"submit" (fun () ->
        request ~meth:"POST" ~path:"/api/jobs" ~body:spec ())
  in
  let job =
    match J.mem_str "job" reply with
    | Some id -> id
    | None -> fail "fleet: submit reply without a job id"
  in
  let outcome, _ =
    timed ~cat:"fleet" ~name:"worker" (fun () ->
        let client = F.Client.create addr in
        let r =
          F.Worker.run ~name:"w0" ~poll_s:0.05 ~drain:true ~client ~runner ()
        in
        F.Client.close client;
        r)
  in
  let wall = now () -. t0 in
  let o = match outcome with Ok o -> o | Error e -> fail "fleet worker: %s" e in
  let status = request ~meth:"GET" ~path:("/api/jobs/" ^ job) () in
  if J.mem_str "state" status <> Some "done" then
    fail "fleet: job %s not done: %s" job (J.to_string status);
  let metrics = request ~meth:"GET" ~path:"/metrics" () in
  F.Client.close ctl;
  F.Server.stop server;
  let merged =
    match Journal.read (Filename.concat dir (job ^ ".jsonl")) with
    | Error e -> fail "fleet: merged journal: %s" e
    | Ok (h, records) ->
        if not (Journal.is_complete h records) then
          fail "fleet: merged journal incomplete";
        List.sort compare (List.map journal_key records)
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  if first then defer p (reference_gate ~mismatch p src spec merged);
  Hashtbl.replace p.counts "outcomes.merged" (outcomes_digest merged);
  let shards = List.rev !shards in
  let m k = Option.value (Option.bind (J.mem k metrics) J.int) ~default:0 in
  sample p "setup_s"
    (List.fold_left (fun a s -> Float.min a s.header) infinity shards -. t0);
  sample p "mutants_per_s" (float_of_int fleet_mutants /. wall);
  (* the job's figures are normalised by probes bracketing the job
     itself rather than the whole pass *)
  let job_probe = Stats.median (probes_before @ [ Host.probe (); Host.probe () ]) in
  p.probes <-
    List.map (fun k -> (k, job_probe)) [ "mutants_per_s"; "mutant_us"; "setup_s" ];
  add p "fleet.submit_ms" (t_submit *. 1e3);
  add p "fleet.wall_s" wall;
  List.iter
    (fun s ->
      add p "fleet.shard_setup_s" (s.header -. s.entry);
      add p "fleet.runner_s" (s.exit -. s.entry);
      add p "fleet.emit_s" s.emit_s;
      add p "fleet.lines" (float_of_int (List.length s.lines));
      journal_gaps p (List.rev s.lines))
    shards;
  fault_telemetry p creg;
  count p "fleet.http_requests" (m "fleet.http.requests");
  count p "fleet.leases_granted" (m "fleet.leases.granted");
  count p "fleet.leases_reclaimed" (m "fleet.leases.reclaimed");
  count p "fleet.records_duplicates" (m "fleet.records.duplicates");
  count p "fleet.batches" (m "fleet.records.batch_size.count");
  count p "fleet.batch_lines" (m "fleet.records.batch_size.sum");
  p.attempted <- p.attempted + fleet_mutants + fleet_shards + m "fleet.http.requests";
  p.failed <- p.failed + o.F.Worker.o_shards_failed + m "fleet.leases.reclaimed";
  ignore
    (run_programs ~mismatch:false ~first ~reps:health_reps ~restores:1 p
       [ prog_of src.Programs.name (assemble p src) src.Programs.expect ])

(* ------------------------------------------------------------------ *)
(* Traces *)

let layer_of (s : Spans.t) =
  match (s.Spans.cat, s.Spans.name) with
  | "asm", _ -> Some "asm"
  | "cpu", _ -> Some "cpu"
  | "flow", "golden+coverage" -> Some "coverage"
  | ("flow" | "campaign" | "mutant"), _ -> Some "fault"
  | "flows", _ -> Some "flows"
  | "fleet", _ -> Some "fleet"
  | _ -> None

let layers = [ "asm"; "cpu"; "coverage"; "fault"; "flows"; "fleet" ]

let read_trace p trace =
  match Spans.of_trace_json (Obs.Trace_events.contents trace) with
  | Error e -> failwith e
  | Ok spans ->
      p.layers <- Spans.self_by_layer layer_of spans;
      let dur name = Spans.total_dur (fun s -> s.Spans.name = name) spans in
      add p "coverage.golden_ms" (dur "golden+coverage" /. 1e3);
      add p "fault.generate_us" (dur "generate");
      add p "fault.golden_trace_ms" (dur "golden-trace" /. 1e3)

(* ------------------------------------------------------------------ *)
(* Driver *)

let workloads =
  [ ("run-suite", fun ~seed ~mismatch ~first ~out:_ ~pass_no:_ p ->
        run_suite ~seed ~mismatch ~first p);
    ("campaign", fun ~seed ~mismatch ~first ~out:_ ~pass_no:_ p ->
        campaign ~seed ~mismatch ~first p);
    ("fleet", fleet) ]

let proc = Obs.Metrics.create ()
let () = Obs.Metrics.register_process_gauges proc

(* Pass inputs: input 0 is made from the workload seed itself, input k
   from a seed derived from it, so one run covers many inputs while the
   seed alone still determines all of them. *)
let input_seed ~seed k = if k = 0 then seed else Hashtbl.hash (seed, k)

(* One pass, in a forked child process: each pass starts from the same
   fresh process state, like a separate [s4e] invocation, and its peak
   resident set is the child's own.  A mutant that scribbles over
   memory grows one child, not every later pass.  The child runs the
   pass's gates, writes its trace, and sends the pass back marshalled. *)
type child_result = Pass of pass | Gate_failed of string | Crashed of string

let pass_in_child pass_fn ~seed ~mismatch ~out ~trace_file ~pass_no ~input =
  let probe0 = Host.probe () in
  let p = new_pass () in
  p.input <- input;
  let trace = Option.map (fun _ -> Obs.Trace_events.create ()) trace_file in
  sink := trace;
  let gc0 = snapshot proc in
  let (), wall =
    timed ~cat:"bench" ~name:"pass" (fun () ->
        pass_fn ~seed:(input_seed ~seed input) ~mismatch ~first:(pass_no = 0)
          ~out ~pass_no p)
  in
  let gc1 = snapshot proc in
  sink := None;
  p.wall <- wall;
  p.probe <- (probe0 +. Host.probe ()) /. 2.;
  List.iter
    (fun k -> add p k (List.assoc k gc1 -. List.assoc k gc0))
    [ "process.gc_minor_collections"; "process.gc_major_words" ];
  sample p "peak_rss_mb" (float_of_int (lookup "process.max_rss_kb" gc1) /. 1024.);
  List.iter (fun check -> check ()) (List.rev p.checks);
  p.checks <- [];
  (match (trace, trace_file) with
  | Some t, Some file ->
      read_trace p t;
      Obs.Trace_events.write t file
  | _ -> ());
  p

let run_pass pass_fn ~seed ~mismatch ~out ~trace_file ~pass_no ~input =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (* a pass that hangs is killed, and the run fails, well inside the
         three minutes a run may take *)
      ignore (Unix.alarm 150);
      let r =
        try Pass (pass_in_child pass_fn ~seed ~mismatch ~out ~trace_file ~pass_no ~input)
        with
        | Gate m -> Gate_failed m
        | e -> Crashed (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (r : child_result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try Some (Marshal.from_channel ic : child_result)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with
      | Some (Pass p) -> p
      | Some (Gate_failed m) -> raise (Gate m)
      | Some (Crashed m) -> failwith (Printf.sprintf "pass %d: %s" pass_no m)
      | None -> failwith (Printf.sprintf "pass %d: the pass process died" pass_no))

(* Exact counts must repeat across passes over the same inputs. *)
let canary first p pass_no =
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt first.counts k with
      | Some v0 when v0 = v -> ()
      | v0 ->
          fail "determinism canary: %s is %s in pass %d but %s in an \
                earlier pass over the same inputs" k v pass_no
            (Option.value v0 ~default:"absent"))
    p.counts

let canary_digest p =
  Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) p.counts []
  |> List.sort compare |> String.concat ";" |> Digest.string |> Digest.to_hex

let all_samples passes k = List.concat_map (fun p -> samples p k) passes
let ratio a b = if b > 0. then a /. b else 0.

(* End-to-end figures: every timing is normalised to the reference
   host speed with its own pass's probe ({!Host}), then the median over
   the passes' samples is reported; the per-mutant percentiles pool all
   samples.  [raw] skips the normalisation, for the printed
   comparison. *)
let end_to_end ?(raw = false) passes =
  let time p k t =
    if raw then t
    else
      Host.normalize
        ~probe_s:(Option.value (List.assoc_opt k p.probes) ~default:p.probe)
        t
  in
  let times k = List.concat_map (fun p -> List.map (time p k) (samples p k)) passes in
  let rates k =
    List.concat_map (fun p -> List.map (fun r -> r /. time p k 1.) (samples p k)) passes
  in
  let mutant_us = times "mutant_us" in
  let p99 = Stats.percentile 99. mutant_us in
  ( [ ("mutants_per_s", "1/s", Stats.median (rates "mutants_per_s"));
      ("mutant_p50_us", "us", (Stats.percentile 50. mutant_us).Stats.value);
      ("mutant_p99_us", "us", p99.Stats.value);
      ("setup_s", "s", Stats.median (times "setup_s"));
      ("cold_run_ms", "ms", Stats.median (times "cold_run_ms"));
      ("warm_mips", "MIPS", Stats.median (rates "warm_mips"));
      ("peak_rss_mb", "MB", Stats.median (all_samples passes "peak_rss_mb")) ],
    p99 )

let per_layer ~untraced ~traced =
  let med f = Stats.median (List.map f traced) in
  let per_rep k = med (fun p -> ratio (get p k) (get p "reps")) in
  let per_mutant k = med (fun p -> ratio (get p k) (get p "fault.mutants")) in
  let exact k = get (List.hd traced) k in
  let gaps = List.concat_map (fun p -> p.gaps) traced in
  let kind_p50 k =
    match List.filter (fun s -> s.Gaps.kind = k) gaps with
    | [] -> 0.
    | l -> Stats.median (List.map (fun s -> s.Gaps.gap_s *. 1e6) l)
  in
  List.map (fun (k, u) -> (k, u, per_rep k))
    [ ("cpu.create_load_us", "us"); ("cpu.cold_exec_ms", "ms");
      ("cpu.warm_exec_ms", "ms"); ("cpu.restored_exec_ms", "ms");
      ("cpu.reset_us", "us"); ("cpu.restore_us", "us");
      ("cpu.snapshot_us", "us") ]
  @ [ ("cpu.retranslate_ms", "ms",
       per_rep "cpu.restored_exec_ms" -. per_rep "cpu.warm_exec_ms");
      ("cpu.digest_us", "us", med (fun p -> ratio (get p "digest_s") (get p "digests")) *. 1e6) ]
  @ List.map (fun (k, u) -> (k, u, med (fun p -> get p k)))
      [ ("asm.assemble_us", "us"); ("coverage.golden_ms", "ms");
        ("fault.golden_trace_ms", "ms"); ("fault.generate_us", "us");
        ("fleet.shard_setup_s", "s"); ("fleet.runner_s", "s");
        ("fleet.emit_s", "s"); ("fleet.submit_ms", "ms");
        ("process.gc_minor_collections", "count");
        ("process.gc_major_words", "words") ]
  @ List.map (fun k -> (k, "count", exact k))
      [ "tb.misses"; "tb.chain_hits"; "sb.promotions"; "sb.execs";
        "mem.tlb_misses"; "fault.hangs"; "fleet.http_requests";
        "fleet.leases_granted"; "fleet.leases_reclaimed";
        "fleet.records_duplicates" ]
  @ [ ("fault.transient_p50_us", "us", kind_p50 Gaps.Transient);
      ("fault.permanent_p50_us", "us", kind_p50 Gaps.Permanent);
      ("fault.insns_per_mutant", "insns", per_mutant "fault.insns");
      ("fault.early_exit_ratio", "ratio", per_mutant "fault.early_exits");
      ("fault.fork_ratio", "ratio", per_mutant "fault.snapshot_forks") ]
  @ List.map
      (fun o -> ("fault.time_share." ^ o, "ratio", Gaps.time_share gaps o))
      [ "masked"; "sdc"; "crashed"; "hung" ]
  @ [ ("fleet.runner_inflation", "ratio",
       (* the reference ran on the first pass's inputs *)
       let ref_s = get (List.hd untraced) "fleet.ref_s" in
       match List.filter (fun p -> p.input = 0) traced with
       | [] -> 0.
       | same ->
           ratio (Stats.median (List.map (fun p -> get p "fleet.runner_s") same)) ref_s);
      ("fleet.overhead_s", "s",
       med (fun p -> Float.max 0. (get p "fleet.wall_s" -. get p "fleet.runner_s")));
      ("journal.line_us", "us",
       med (fun p -> ratio (get p "fleet.emit_s") (get p "fleet.lines")) *. 1e6);
      ("fleet.batch_size_mean", "lines",
       ratio (exact "fleet.batch_lines") (exact "fleet.batches")) ]
  @ List.map
      (fun l ->
        ( "layer." ^ l ^ ".self_ms", "ms",
          med (fun p -> Option.value (List.assoc_opt l p.layers) ~default:0.)
          /. 1e3 ))
      layers
  @ [ ("trace.attributed_share", "ratio",
       med (fun p -> ratio (Stats.sum (List.map snd p.layers) /. 1e6) p.wall));
      ("trace.overhead_ms", "ms",
       (* paired: each traced pass against the untraced pass just before
          it on the same inputs, both at reference host speed *)
       let norm p = Host.normalize ~probe_s:p.probe p.wall in
       Stats.median
         (List.filter_map
            (fun t ->
              Option.map
                (fun u -> (norm t -. norm u) *. 1e3)
                (List.find_opt (fun u -> u.input = t.input) untraced))
            traced));
      ("host.probe_ms", "ms", med (fun p -> p.probe) *. 1e3);
      ("mutant.samples", "count",
       float_of_int (List.length (all_samples traced "mutant_us"))) ]

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, u, v) ->
            if not (Float.is_finite v) then fail "metric %s is %f" k v;
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
          metrics))

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out = ref "_perfbench" and mismatch = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME run-suite, campaign or fleet");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR directory for traces and results");
      ("--inject-mismatch", Arg.Set mismatch,
       " corrupt one expected value; the correctness gate must then fail") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let out = !out and seed = !seed and traced_run = !trace = 1 in
  let pass_fn =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let attempted = ref 0 and failed = ref 0 in
  let untraced = ref [] and traced_passes = ref [] in
  let seen = Hashtbl.create 16 and measured = ref 0. and pass_no = ref 0 in
  let t_start = now () in
  let enough () =
    !measured >= !seconds
    && List.length !untraced >= 3
    && (if traced_run then List.length !traced_passes >= 2
        else
          List.length (all_samples !untraced "mutant_us") >= Stats.samples_for 99.)
  in
  (* A traced run gives each input to an untraced and then a traced
     pass, so the two compare directly; an untraced run gives every pass
     fresh inputs and ends with a repeat of the first pass's inputs,
     outside the figures, for the canary. *)
  let pass ~traced ~input =
    if now () -. t_start > 150. then
      fail "run budget exhausted after %d passes" !pass_no;
    let trace_file =
      if traced then
        Some (Filename.concat out
                (Printf.sprintf "trace-%s-seed%d-pass%d.json" !workload seed !pass_no))
      else None
    in
    let p =
      run_pass pass_fn ~seed ~mismatch:!mismatch ~out ~trace_file
        ~pass_no:!pass_no ~input
    in
    (match Hashtbl.find_opt seen input with
    | None -> Hashtbl.replace seen input p
    | Some f -> canary f p !pass_no);
    attempted := !attempted + p.attempted;
    failed := !failed + p.failed;
    incr pass_no;
    p
  in
  (try
     while not (enough ()) do
       let traced = traced_run && !pass_no mod 2 = 1 in
       let input = if traced_run then !pass_no / 2 else !pass_no in
       let p = pass ~traced ~input in
       measured := !measured +. p.wall;
       if traced then traced_passes := p :: !traced_passes
       else untraced := p :: !untraced
     done;
     if not traced_run then ignore (pass ~traced:false ~input:0)
   with Gate m ->
     Printf.eprintf "perfbench: correctness gate failed: %s\n%!" m;
     print_endline
       (result_line ~correct:false ~attempted:(max 1 !attempted)
          ~failed:(max 1 !failed) []);
     exit 1);
  let untraced = List.rev !untraced and traced = List.rev !traced_passes in
  let canary = canary_digest (Hashtbl.find seen 0) in
  Printf.printf
    "workload %s  seed %d  passes %d (%d traced)  %.1f s measured  canary %s\n"
    !workload seed !pass_no (List.length traced) !measured canary;
  Printf.printf "host probe %.2f ms (reference %.0f ms)\n"
    (Stats.median (List.map (fun p -> p.probe) untraced) *. 1e3)
    (Host.reference_s *. 1e3);
  let reported =
    if traced_run then per_layer ~untraced ~traced
    else begin
      let e2e, p99 = end_to_end untraced in
      if not (Stats.reportable p99) then
        failwith "too few per-mutant samples for a p99";
      Printf.printf "per-mutant samples %d (%d beyond p99)\n" p99.Stats.samples
        p99.Stats.beyond;
      e2e
    end
  in
  let host = if traced_run then [] else fst (end_to_end ~raw:true untraced) in
  List.iter
    (fun (k, u, v) ->
      Printf.printf "  %-32s %14.4f %-5s%s\n" k v u
        (match List.find_opt (fun (k', _, _) -> k' = k) host with
        | Some (_, _, h) when h <> v -> Printf.sprintf "  (host time: %.4f)" h
        | _ -> ""))
    reported;
  let line = result_line ~correct:true ~attempted:!attempted ~failed:!failed reported in
  let oc =
    open_out
      (Filename.concat out
         (Printf.sprintf "result-%s-seed%d-trace%d.json" !workload seed !trace))
  in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"canary\": %S, \"result\": %s}\n"
    !workload seed !trace canary line;
  close_out oc;
  print_endline line

let () =
  try main () with
  | Gate m ->
      Printf.eprintf "perfbench: correctness gate failed: %s\n%!" m;
      exit 1
  | Arg.Bad m | Failure m | Sys_error m ->
      Printf.eprintf "perfbench: %s\n%!" m;
      exit 2
