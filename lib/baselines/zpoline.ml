(** The zpoline baseline: pure load-time binary rewriting.

    At install time, every executable region of the process image is
    linearly disassembled; every [syscall] instruction the sweep finds
    is rewritten to [call rax], which lands in the nop-sled trampoline
    at VA 0 (the syscall number is in [rax] per the ABI) and slides
    into the interposer entry.

    What this gets right (and why the paper builds on it): the rewrite
    itself can never fail — [call rax] is exactly as large as
    [syscall].

    What it gets wrong by design (Section II-B): it cannot see code
    that does not exist yet (JIT, dynamic loading), and the linear
    sweep can both miss syscalls hidden by instruction-stream
    desynchronisation and misidentify data as code.  The tests and the
    exhaustiveness experiment exercise both failure modes. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Sim_kernel
open Types
module Hook = Lazypoline.Hook
module Layout = Lazypoline.Layout

type stats = {
  mutable sites_rewritten : int;
  mutable hits : int;
  mutable bytes_scanned : int;
}

type t = {
  kernel : kernel;
  hook : Hook.t;
  stats : stats;
  mutable entry_addr : int;
  clone_rsi : (int, int64) Hashtbl.t;
      (** caller's rsi across a clone (see [prep_clone]) *)
}

let to_i = Int64.to_int

(** A clone with a fresh child stack resumes the child inside the
    stub, whose [ret] pops a return address the new stack does not
    have: replicate the caller's return address at the top of the
    child stack and hand the kernel the adjusted pointer, exactly as
    the lazypoline fast path does. *)
let prep_clone (st : t) (t : task) =
  let c = t.ctx in
  let new_stack = Cpu.peek_reg_int c Isa.rsi in
  if new_stack <> 0 then begin
    match Mem.peek_u64 t.mem (Cpu.peek_reg_int c Isa.rsp) with
    | ret_addr -> (
        try
          Mem.write_u64 t.mem (new_stack - 8) ret_addr;
          Hashtbl.replace st.clone_rsi t.tid (Cpu.peek_reg c Isa.rsi);
          Cpu.poke_reg_int c Isa.rsi (new_stack - 8)
        with Mem.Fault _ -> ())
    | exception Mem.Fault _ -> ()
  end

let hyper_enter (st : t) (k : kernel) (t : task) =
  charge k Layout.hook_save_cost;
  st.stats.hits <- st.stats.hits + 1;
  let c = t.ctx in
  let nr = Cpu.peek_reg_int c Isa.rax in
  if st.hook.Hook.clobbers_xstate then
    (* zpoline does not preserve extended state: the hook's SSE usage
       leaks straight into the application (Section IV-B-b). *)
    Lazypoline.clobber_xstate t;
  charge k st.hook.Hook.body_cost;
  let site =
    match Mem.peek_u64 t.mem (Cpu.peek_reg_int c Isa.rsp) with
    | ret -> to_i ret - 2
    | exception Mem.Fault _ -> 0
  in
  let ctx =
    {
      Hook.kernel = k;
      task = t;
      nr;
      args = Array.map (fun r -> Cpu.peek_reg c r) Hook.arg_regs;
      site;
    }
  in
  match st.hook.Hook.on_syscall ctx with
  | Hook.Return v ->
      t.trace_path <- None;
      Cpu.poke_reg c Isa.rax v;
      c.rip <- c.rip + 2
  | Hook.Emulate ->
      (* The stub's [syscall] below carries the real dispatch: tag it
         as a rewritten-site fast-path entry for the tracer. *)
      if observing k && t.trace_path = None then
        t.trace_path <- Some Sim_trace.Event.Fast_path;
      if nr = Defs.sys_rt_sigreturn then
        (* A signal restorer's [syscall] was rewritten like any other
           site, so the trampoline call pushed a return address the
           kernel does not expect: rt_sigreturn locates the frame from
           rsp and never returns, so drop it.  (Real zpoline must
           special-case rt_sigreturn for exactly this reason.) *)
        Cpu.poke_reg_int c Isa.rsp (Cpu.peek_reg_int c Isa.rsp + 8)
      else if nr = Defs.sys_clone then prep_clone st t

let hyper_exit (st : t) (k : kernel) (t : task) =
  charge k Layout.hook_restore_cost;
  (* restore the caller's rsi after a clone (see prep_clone) *)
  match Hashtbl.find_opt st.clone_rsi t.tid with
  | Some rsi ->
      Hashtbl.remove st.clone_rsi t.tid;
      Cpu.poke_reg t.ctx Isa.rsi rsi
  | None -> ()

let stub_items ~enter ~exit_ =
  let open Sim_asm.Asm in
  [
    Label "syscall_entry"; hypercall enter; Label "emulated_syscall";
    syscall; hypercall exit_; ret;
  ]

(** Rewrite every syscall site a linear sweep finds in the currently
    mapped executable regions.  Returns the number of rewrites.  The
    patches land through [Mem.poke_bytes] directly onto RX pages,
    which bumps each page's generation — decoded-instruction caches
    pick up the rewritten bytes on their next fetch even when the
    sweep runs after code has already executed. *)
let rewrite_image (st : t) (t : task) =
  let n = ref 0 in
  List.iter
    (fun (addr, len, perm) ->
      if perm land Mem.p_x <> 0 && addr <> Layout.trampoline_base
         && addr <> Layout.interp_code_base then begin
        let code = Mem.peek_bytes t.mem addr len in
        st.stats.bytes_scanned <- st.stats.bytes_scanned + len;
        List.iter
          (fun off -> begin
            Mem.poke_bytes t.mem (addr + off) "\xff\xd0";
            if st.kernel.observers <> [] then
              emit st.kernel
                (Rewrite
                   { site = addr + off; how = Sim_obs.Provenance.Rw_sweep });
            incr n
          end)
          (Disasm.find_syscall_sites code)
      end)
    (Mem.regions t.mem);
  st.stats.sites_rewritten <- st.stats.sites_rewritten + !n;
  if st.kernel.observers <> [] then
    emit st.kernel
      (Trace
         (Sim_trace.Event.Sweep
            { sites = !n; bytes_scanned = st.stats.bytes_scanned }));
  !n

(** Install zpoline into [t]'s process: map the trampoline page at VA
    0 and the interposer stub, then statically rewrite the image. *)
let install (k : kernel) (t : task) (hook : Hook.t) : t =
  let st =
    {
      kernel = k;
      hook;
      stats = { sites_rewritten = 0; hits = 0; bytes_scanned = 0 };
      entry_addr = 0;
      clone_rsi = Hashtbl.create 4;
    }
  in
  let enter = Kernel.register_hypercall k (hyper_enter st) in
  let exit_ = Kernel.register_hypercall k (hyper_exit st) in
  let stub =
    Sim_asm.Asm.assemble ~base:Layout.interp_code_base
      (stub_items ~enter ~exit_)
  in
  st.entry_addr <- Sim_asm.Asm.symbol stub "syscall_entry";
  Mem.map t.mem ~addr:stub.Sim_asm.Asm.base
    ~len:(String.length stub.Sim_asm.Asm.bytes) ~perm:Mem.rx;
  Mem.poke_bytes t.mem stub.Sim_asm.Asm.base stub.Sim_asm.Asm.bytes;
  let tramp = Layout.trampoline_blob ~entry:st.entry_addr in
  Mem.map t.mem ~addr:0 ~len:(String.length tramp.Sim_asm.Asm.bytes)
    ~perm:Mem.rx;
  Mem.poke_bytes t.mem 0 tramp.Sim_asm.Asm.bytes;
  ignore (rewrite_image st t);
  st
