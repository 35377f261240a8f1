(** The paper's microbenchmark (Table II / Fig. 4): invoke the
    non-existent syscall 500 in a tight loop and measure cycles per
    iteration under every interposition mechanism.

    Syscall 500 bounds the kernel round trip from below (ENOSYS
    immediately) and enters the zpoline nop sled at its very tail,
    maximally exposing the interposers' own overhead.  As in the
    paper, the lazypoline configurations pre-rewrite the loop's
    syscall site so the measurement captures pure steady state, not
    the one-off slow-path rewrite. *)

open Sim_isa
open Sim_asm.Asm
open Sim_kernel
module Hook = Lazypoline.Hook

type config =
  | Native
  | Native_sud_allow  (** SUD enabled, selector = ALLOW, no interposer *)
  | Zpoline
  | Lazypoline_full  (** SUD slow path + xstate preservation *)
  | Lazypoline_noxstate
  | Lazypoline_nosud  (** Fig. 4: fast path only, SUD disabled *)
  | Lazypoline_protected
      (** Section VI hardening: selector behind a protection key *)
  | Sud
  | Seccomp_user
  | Seccomp_bpf
  | Ptrace

let config_name = function
  | Native -> "native"
  | Native_sud_allow -> "native+SUD(ALLOW)"
  | Zpoline -> "zpoline"
  | Lazypoline_full -> "lazypoline"
  | Lazypoline_noxstate -> "lazypoline w/o xstate"
  | Lazypoline_nosud -> "lazypoline w/o SUD"
  | Lazypoline_protected -> "lazypoline + MPK selector protection"
  | Sud -> "SUD"
  | Seccomp_user -> "seccomp-user"
  | Seccomp_bpf -> "seccomp-bpf"
  | Ptrace -> "ptrace"

let bench_items ~iters ~nr =
  [
    Label "start";
    mov_ri Isa.rbx iters;
    Label "loop";
    mov_ri Isa.rax nr;
    Label "site";
    syscall;
    sub_ri Isa.rbx 1;
    cmp_ri Isa.rbx 0;
    Jcc_l (Isa.Ne, "loop");
  ]
  @ [ mov_ri Isa.rdi 0; mov_ri Isa.rax Defs.sys_exit_group; syscall ]

(** Run one configuration; returns cycles per iteration.  [icache]
    selects the simulator's decoded-instruction cache (host-side speed
    only; simulated cycle counts are identical either way — asserted
    by test_icache).  [blocks] likewise selects the threaded-code
    block engine on top of the icache (default: on unless
    [SIM_NO_BLOCKS] is set); also host-side only and bit-identical,
    asserted by the engine-identity properties in test_icache.
    [observers] subscribe to the run (see {!Sim_kernel.Observers}) and
    are told the image's symbols; observation is free, so the returned
    cycles-per-iteration is identical with or without them (asserted by
    the qcheck property in test_observers).  [chaos] attaches a chaos
    engine; with zero rates it must also leave the cycle count
    bit-identical (the chaos-off identity gate in bench/main.ml and
    test_chaos). *)
let run ?(iters = 20_000) ?(nr = 500) ?(icache = true) ?blocks
    ?(observers = []) ?(chaos : Sim_chaos.Chaos.t option)
    ?(policy : Sim_policy.Policy.t option)
    ?(on_done : Types.kernel -> Types.task -> unit = fun _ _ -> ())
    (config : config) : float =
  let k = Kernel.create ~icache ?blocks () in
  List.iter (Kernel.observe k) observers;
  (match chaos with Some ch -> Kernel.attach_chaos k ch | None -> ());
  (match policy with Some p -> Kernel.attach_policy k p | None -> ());
  let blob =
    Sim_asm.Asm.assemble ~base:Loader.code_base (bench_items ~iters ~nr)
  in
  let img = Loader.image ~entry:(Sim_asm.Asm.symbol blob "start") ~text:blob () in
  if observers <> [] then Types.emit k (Types.Symbols img.Types.img_symbols);
  let t = Kernel.spawn k img in
  let site = Sim_asm.Asm.symbol blob "site" in
  let hook = Hook.dummy () in
  (match config with
  | Native -> ()
  | Native_sud_allow ->
      (* Enable SUD with a permanently-ALLOW selector and no handler:
         measures the bare entry-path tax of the exhaustiveness
         guarantee. *)
      let gs = Lazypoline.setup_gs_area t in
      Sim_mem.Mem.poke_bytes t.Types.mem gs
        (String.make 1 (Char.chr Defs.syscall_dispatch_filter_allow));
      t.Types.sud.Types.sud_on <- true;
      t.Types.sud.Types.sud_selector <- gs
  | Zpoline -> ignore (Baselines.Zpoline.install k t hook)
  | Lazypoline_full ->
      let st = Lazypoline.install ~preserve_xstate:true k t hook in
      Lazypoline.rewrite_site st t ~addr:site
  | Lazypoline_noxstate ->
      let st = Lazypoline.install ~preserve_xstate:false k t hook in
      Lazypoline.rewrite_site st t ~addr:site
  | Lazypoline_nosud ->
      let st =
        Lazypoline.install ~preserve_xstate:false ~enable_sud:false k t hook
      in
      Lazypoline.rewrite_site st t ~addr:site
  | Lazypoline_protected ->
      let st =
        Lazypoline.install ~preserve_xstate:false ~protect_selector:true k t
          hook
      in
      Lazypoline.rewrite_site st t ~addr:site
  | Sud -> ignore (Baselines.Sud_interposer.install k t hook)
  | Seccomp_user -> ignore (Baselines.Seccomp_user.install k t hook)
  | Seccomp_bpf ->
      ignore (Baselines.Seccomp_bpf.install k t Baselines.Seccomp_bpf.inspect_all)
  | Ptrace -> ignore (Baselines.Ptrace_interposer.install k t hook));
  let ok = Kernel.run_until_exit ~max_slices:40_000_000 k in
  if not ok then failwith ("microbench did not terminate: " ^ config_name config);
  on_done k t;
  Int64.to_float t.Types.tcycles /. float_of_int iters

(** Overhead of [config] relative to native execution. *)
let overhead ?iters ?nr ?icache config =
  let base = run ?iters ?nr ?icache Native in
  run ?iters ?nr ?icache config /. base
