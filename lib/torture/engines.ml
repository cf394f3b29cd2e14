(* The engine matrix: the execution configurations the differential
   suites and the emulator benchmarks drive every case through, all
   observationally identical (same stop reason and [state_digest]).
   [lowered] is the block engine with superblock traces pinned off (the
   stable reference of the translated configs); [hooked] is the default
   config with no-op insn, mem and block subscribers, so every case also
   runs the instrumented µops; [tlb-off] pins the memory fast path as
   observationally inert; [single-step] is the reference interpreter. *)

module Machine = S4e_cpu.Machine
module Hooks = S4e_cpu.Hooks

type t = {
  name : string;
  config : Machine.config;
  instrument : Machine.t -> unit;  (* run on each fresh machine *)
}

let make ?(instrument = ignore) name config = { name; config; instrument }
let sb_off c = { c with Machine.superblocks = false }

let attach_noop_hooks m =
  let h = m.Machine.hooks in
  ignore (Hooks.on_insn h (fun _ _ -> ()) : Hooks.id);
  ignore (Hooks.on_mem h ignore : Hooks.id);
  ignore (Hooks.on_block h (fun _ _ -> ()) : Hooks.id)

let all =
  [ make "lowered" (sb_off Machine.default_config);
    make "unchained"
      (sb_off { Machine.default_config with Machine.chain_blocks = false });
    make "hooked" ~instrument:attach_noop_hooks Machine.default_config;
    make "single-step"
      (sb_off { Machine.default_config with Machine.use_tb_cache = false });
    make "tlb-off"
      (sb_off { Machine.default_config with Machine.mem_tlb = false });
    make "superblocks" Machine.default_config ]

(* A fresh machine of engine [e]; [map] adjusts its config (hart count,
   slice). *)
let create ?(map = Fun.id) e =
  let m = Machine.create ~config:(map e.config) () in
  e.instrument m;
  m
