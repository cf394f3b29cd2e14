(* The measurement protocol of the emulator experiments (E9, E12-E19),
   shared so every experiment measures speed the same way:

   - digest gate first: every arm must stop like the experiment's
     reference and leave the identical state digest before anything is
     timed ([gate]);
   - steady state: each timed sample re-runs the image on one machine
     until it covers at least 200k instructions ([reps]); [Machine.reset]
     between reps keeps RAM and the warm translation caches;
   - the exact instruction total: the sum of [instret] over the reps
     ([run]), not reps x the first run's count — a rep after the first
     may retire a few more or fewer, because the image's data segment
     carries over;
   - interleaved min of N: the arms run round-robin, N rounds, and each
     reports its fastest round ([time]), so a host-speed drift hits
     every arm alike. *)

module Machine = S4e_cpu.Machine
module Engines = S4e_torture.Engines

(* A member of the shared engine matrix, by name. *)
let engine name = List.find (fun e -> e.Engines.name = name) Engines.all

type run = { machine : Machine.t; instrs : int; stop : Machine.stop_reason }

(* [reps] runs of [p] back to back on one fresh machine of engine [e]. *)
let run ?map ?(reps = 1) ~fuel e p =
  let m = Engines.create ?map e in
  S4e_asm.Program.load_machine p m;
  let entry = m.Machine.state.S4e_cpu.Arch_state.pc in
  let stop = ref (Machine.run m ~fuel) in
  let instrs = ref (Machine.instret m) in
  for _ = 2 to reps do
    Machine.reset m ~pc:entry;
    stop := Machine.run m ~fuel;
    instrs := !instrs + Machine.instret m
  done;
  { machine = m; instrs = !instrs; stop = !stop }

(* Reps per timed sample for a program retiring [n1] instructions per
   run. *)
let reps ?(min_instrs = 200_000) ?(min_reps = 1) n1 =
  max min_reps (min_instrs / max n1 1)

let digest m = Machine.state_digest ~include_time:true m

(* The digest gate: [p] run on every engine of [arms] must stop exactly
   as on [reference] and leave the same [digest] (cycles and mtime
   included by default).  [arms] is typically [Engines.all] plus the
   experiment's own extra arms.  Returns the reference run. *)
let gate ?map ?reps ?(digest = digest) ~exp ~workload ~fuel ~reference arms
    p =
  let r = run ?map ?reps ~fuel reference p in
  let d = digest r.machine in
  List.iter
    (fun (e : Engines.t) ->
      let a = run ?map ?reps ~fuel e p in
      if a.stop <> r.stop || digest a.machine <> d then
        failwith
          (Printf.sprintf "%s: %s diverges from %s on %s" exp e.name
             reference.Engines.name workload))
    arms;
  r

(* Interleaved min-of-[n] wall clock: round-robin over the thunks [n]
   times; each returns its first round's result and its fastest
   round. *)
let time ?(n = 3) fs =
  let fs = Array.of_list fs in
  let best = Array.make (Array.length fs) infinity in
  let first = Array.make (Array.length fs) None in
  for _ = 1 to n do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0);
        if Option.is_none first.(i) then first.(i) <- Some r)
      fs
  done;
  List.init (Array.length fs) (fun i -> (Option.get first.(i), best.(i)))

(* Steady-state samples of [p] on each engine of [arms]: [reps] runs per
   sample, timed interleaved, min of [n]. *)
let steady ?n ~reps ~fuel arms p =
  time ?n (List.map (fun e () -> run ~reps ~fuel e p) arms)

let mips (r, t) = float_of_int r.instrs /. t /. 1e6

let geomean rs =
  exp
    (List.fold_left (fun a r -> a +. log r) 0.0 rs
    /. float_of_int (List.length rs))
