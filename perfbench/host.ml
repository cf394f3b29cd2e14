(* The host's own speed, measured around each pass.

   On a shared host the speed available to one process drifts by up to
   1.6x over a few seconds, with CPU time moving with wall time, so a
   plain timing says as much about the neighbours as about the program.
   [probe] times a fixed kernel that shares no code with the program: a
   closure-dispatch loop over a register array and a 64 KiB buffer with
   some allocation — the shape of a block interpreter.  Dividing a
   pass's times by the probe's slowdown against {!reference_s} cancels
   drift that hits both alike; a change to the program moves the pass
   and not the probe. *)

let reference_s = 0.010

(* One round of the kernel, about 2 ms. *)
let round () =
  let regs = Array.make 32 1 in
  let mem = Bytes.make 65536 '\001' in
  let ops =
    [| (fun () -> regs.(1) <- regs.(1) + 1);
       (fun () -> regs.(2) <- regs.(2) lxor (regs.(1) * 2654435761));
       (fun () ->
         Bytes.set_int32_le mem (regs.(2) land 0xFFFC) (Int32.of_int regs.(1)));
       (fun () ->
         let a = (regs.(1) * 64) land 0xFFFC in
         regs.(3) <- regs.(3) + Int32.to_int (Bytes.get_int32_le mem a));
       (fun () ->
         if regs.(3) land 1 = 0 then regs.(4) <- regs.(4) + regs.(3)
         else regs.(5) <- regs.(5) - 1);
       (fun () -> regs.(6) <- (regs.(6) lsl 1) lor (regs.(4) land 1)) |]
  in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 60_000 do
    let ops = Sys.opaque_identity ops in
    for j = 0 to Array.length ops - 1 do
      ops.(j) ()
    done;
    if i land 63 = 0 then
      ignore (Sys.opaque_identity (List.init 32 (fun k -> k * i)))
  done;
  ignore (Sys.opaque_identity regs);
  Unix.gettimeofday () -. t0

(* Five rounds, scaled to one 10 ms probe.  The fastest round is kept:
   interference only slows a round down, so a burst that hits one round
   is dropped, while a slow spell that hits all five is measured. *)
let probe () =
  5. *. List.fold_left Float.min infinity (List.init 5 (fun _ -> round ()))

(* Host seconds -> seconds at reference speed, given the probe time
   measured around them. *)
let normalize ~probe_s t = t *. reference_s /. probe_s
