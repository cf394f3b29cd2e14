(* The engine matrix the differential suites (test_lowered, test_smp,
   test_obs) drive every case through.  [lowered] is the block engine
   with superblock traces pinned off (the stable reference of the
   translated configs); [superblocks] is the full default config;
   [hooked] is the default config with no-op insn, mem and block
   subscribers, so every case also runs the instrumented µops;
   [tlb-off] pins the memory fast path as observationally inert; and
   [single-step] is the reference interpreter. *)

module Machine = S4e_cpu.Machine
module Hooks = S4e_cpu.Hooks

type t = { name : string; config : Machine.config; hooked : bool }

let sb_off c = { c with Machine.superblocks = false }
let plain name config = { name; config; hooked = false }

let all =
  [ plain "lowered" (sb_off Machine.default_config);
    plain "unchained"
      (sb_off { Machine.default_config with Machine.chain_blocks = false });
    { name = "hooked"; config = Machine.default_config; hooked = true };
    plain "single-step"
      (sb_off { Machine.default_config with Machine.use_tb_cache = false });
    plain "tlb-off"
      (sb_off { Machine.default_config with Machine.mem_tlb = false });
    plain "superblocks" Machine.default_config ]

let attach_noop_hooks m =
  let h = m.Machine.hooks in
  ignore (Hooks.on_insn h (fun _ _ -> ()) : Hooks.id);
  ignore (Hooks.on_mem h (fun _ -> ()) : Hooks.id);
  ignore (Hooks.on_block h (fun _ _ -> ()) : Hooks.id)

(* A fresh machine for engine [e]; [map] adjusts its config (hart
   count, slice). *)
let create ?(map = Fun.id) e =
  let m = Machine.create ~config:(map e.config) () in
  if e.hooked then attach_noop_hooks m;
  m
