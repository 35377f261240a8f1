(** Shared machinery for the two signal-driven baselines (SUD and
    seccomp-user): a SIGSYS handler that re-executes the intercepted
    syscall from within the handler and sigreturns back.

    This is the "typical deployment" of Section II-A that lazypoline
    deliberately departs from: the interposition happens inside the
    signal handler, and the handler's own syscall / sigreturn must be
    exempted (via the selector for SUD, via an instruction-pointer
    range filter for seccomp).

    Handler stub shape (entered with rdi = sig, rsi = &siginfo,
    rdx = &ucontext, rsp = frame base F):

    {v
    [selector := ALLOW]          (SUD variant only)
    hypercall PREP               hook runs; app nr/args loaded into
                                 the live registers from the ucontext
    syscall                      the application's syscall, for real
    hypercall FIN                result written back into ucontext;
                                 fresh children re-armed
    [selector := BLOCK]          (SUD variant only)
    add rsp, 8
    mov rax, rt_sigreturn
    syscall                      selector is BLOCK again by now, so
                                 this sigreturn relies on the stub's
                                 allowlisted code range (SUD) or the
                                 instruction-pointer filter (seccomp)
    v}

    Note the SUD variant restores BLOCK *before* the sigreturn and
    relies on the allowlisted code range for the sigreturn itself —
    exactly the classic deployment (and the attack surface) the paper
    describes. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Sim_kernel
open Types
module Hook = Lazypoline.Hook
module Layout = Lazypoline.Layout

type stats = { mutable interceptions : int }

type t = {
  kernel : kernel;
  hook : Hook.t;
  use_selector : bool;  (** SUD variant: maintain the selector byte *)
  stats : stats;
  (* PREP -> FIN communication: per-task suppressed-syscall value. *)
  skip : (int, int64) Hashtbl.t;
  mutable handler_addr : int;
  mutable stub_lo : int;
  mutable stub_hi : int;
}

let to_i = Int64.to_int
let i64 = Int64.of_int

(* At PREP and FIN, rsp still equals the frame base F. *)
let uc_of_rsp (t : task) = Cpu.peek_reg_int t.ctx Isa.rsp + 40
let si_of_rsp (t : task) = Cpu.peek_reg_int t.ctx Isa.rsp + 8

let hyper_prep (st : t) (k : kernel) (t : task) =
  charge k Layout.hook_save_cost;
  st.stats.interceptions <- st.stats.interceptions + 1;
  let uc = uc_of_rsp t and si = si_of_rsp t in
  let nr = to_i (Mem.peek_u64 t.mem (uc + Ksignal.uc_gpr_off Isa.rax)) in
  let args =
    Array.map
      (fun r -> Mem.peek_u64 t.mem (uc + Ksignal.uc_gpr_off r))
      Hook.arg_regs
  in
  let site =
    to_i (Mem.peek_u64 t.mem (si + Ksignal.si_call_addr_off)) - 2
  in
  if st.hook.Hook.clobbers_xstate then
    (* Harmless here: the kernel's signal frame preserves the app's
       xstate across the handler — signal-based interposition gets
       register preservation for free, which is part of why it is so
       compatible (and so slow). *)
    Lazypoline.clobber_xstate t;
  charge k st.hook.Hook.body_cost;
  let ctx = { Hook.kernel = k; task = t; nr; args; site } in
  (match st.hook.Hook.on_syscall ctx with
  | Hook.Return v ->
      Hashtbl.replace st.skip t.tid v;
      (* Skip the stub's syscall instruction. *)
      t.ctx.rip <- t.ctx.rip + 2
  | Hook.Emulate -> Hashtbl.remove st.skip t.tid);
  (* Load the (possibly hook-rewritten) app context into the live
     registers so the stub's syscall instruction replays it. *)
  let c = t.ctx in
  Cpu.poke_reg c Isa.rax (Mem.peek_u64 t.mem (uc + Ksignal.uc_gpr_off Isa.rax));
  Array.iter
    (fun r -> Cpu.poke_reg c r (Mem.peek_u64 t.mem (uc + Ksignal.uc_gpr_off r)))
    Hook.arg_regs;
  (if nr = Defs.sys_clone && not (Hashtbl.mem st.skip t.tid) then begin
     (* A clone child with a fresh stack resumes inside this stub and
        must eventually sigreturn — from a frame its new stack does
        not have.  The classic SIGSYS-interposer move: replicate our
        whole signal frame at the top of the child stack, patch the
        copy's saved rsp to the stack the app actually asked for, and
        hand the kernel the copy's base as the child stack pointer.
        The child then runs the stub tail on the copy and sigreturns
        into app code on the requested stack. *)
     let new_top = Cpu.peek_reg_int c Isa.rsi in
     if new_top <> 0 then begin
       let f = Cpu.peek_reg_int c Isa.rsp in
       let f' = (new_top - Ksignal.frame_size) land lnot 15 in
       try
         let frame = Mem.peek_bytes t.mem f Ksignal.frame_size in
         Mem.poke_bytes t.mem f' frame;
         Mem.poke_u64 t.mem
           (f' + 40 + Ksignal.uc_gpr_off Isa.rsp)
           (i64 new_top);
         (* The copy's saved rip already points past the app's
            syscall site; its saved rax is overwritten with the
            child's 0 by FIN. *)
         Cpu.poke_reg_int c Isa.rsi f'
       with Mem.Fault _ -> ()
     end
   end);
  if
    nr = Defs.sys_rt_sigreturn
    && not (Hashtbl.mem st.skip t.tid)
  then begin
    (* An application signal restorer's own rt_sigreturn trapped (its
       [syscall] sits in app code, outside the exempt range).  The
       kernel locates the frame from rsp, so replaying it from this
       nested SIGSYS frame would restore garbage: move rsp back to
       the interrupted position first.  The replayed sigreturn then
       restores the full app context, abandoning our handler frame
       (it never returns, so the stub's tail is never reached). *)
    Cpu.poke_reg c Isa.rsp (Mem.peek_u64 t.mem (uc + Ksignal.uc_gpr_off Isa.rsp));
    (* The stub's post-FIN selector-restore never executes on this
       path; re-block by hand (the replay itself is exempt by code
       range, as in the classic deployment). *)
    if st.use_selector && t.sud.sud_on then
      Mem.poke_bytes t.mem
        (t.ctx.Cpu.gs_base + Layout.gs_selector)
        (String.make 1 (Char.chr Defs.syscall_dispatch_filter_block))
  end

let rearm_new_task (st : t) (k : kernel) (t : task) =
  if st.use_selector && not t.sud.sud_on then begin
    let addr =
      to_i
        (Kernel.kernel_syscall k t Defs.sys_mmap
           [|
             0L; i64 Layout.gs_size;
             i64 (Defs.prot_read lor Defs.prot_write);
             i64 (Defs.map_private lor Defs.map_anonymous); -1L; 0L;
           |])
    in
    ignore
      (Kernel.kernel_syscall k t Defs.sys_arch_prctl
         [| i64 Defs.arch_set_gs; i64 addr |]);
    ignore
      (Kernel.kernel_syscall k t Defs.sys_prctl
         [|
           i64 Defs.pr_set_syscall_user_dispatch;
           i64 Defs.pr_sys_dispatch_on; i64 st.stub_lo;
           i64 (st.stub_hi - st.stub_lo); i64 addr;
         |])
  end

let hyper_fin (st : t) (k : kernel) (t : task) =
  charge k Layout.hook_restore_cost;
  let uc = uc_of_rsp t in
  let result =
    match Hashtbl.find_opt st.skip t.tid with
    | Some v ->
        Hashtbl.remove st.skip t.tid;
        v
    | None -> Cpu.peek_reg t.ctx Isa.rax
  in
  Mem.poke_u64 t.mem (uc + Ksignal.uc_gpr_off Isa.rax) result;
  (* A task we have never prepared is a fresh fork/clone child that
     resumed inside this stub: re-arm interception for it. *)
  rearm_new_task st k t

let stub_items (st : t) ~prep ~fin =
  let open Sim_asm.Asm in
  [ Label "sigsys_handler" ]
  @ (if st.use_selector then
       Layout.set_selector_items Defs.syscall_dispatch_filter_allow
     else [])
  @ [ hypercall prep; Label "emulated_syscall"; syscall; hypercall fin ]
  @ (if st.use_selector then
       Layout.set_selector_items Defs.syscall_dispatch_filter_block
     else [])
  @ [
      add_ri Isa.rsp 8;
      mov_ri Isa.rax Defs.sys_rt_sigreturn;
      Label "sigreturn_syscall";
      syscall;
    ]

(** Map the handler stub into [t] and register it for SIGSYS.
    Returns the handle; the caller (SUD or seccomp-user install)
    arranges the actual interception trigger. *)
let setup (k : kernel) (t : task) (hook : Hook.t) ~use_selector : t =
  let st =
    {
      kernel = k;
      hook;
      use_selector;
      stats = { interceptions = 0 };
      skip = Hashtbl.create 4;
      handler_addr = 0;
      stub_lo = 0;
      stub_hi = 0;
    }
  in
  let prep = Kernel.register_hypercall k (hyper_prep st) in
  let fin = Kernel.register_hypercall k (hyper_fin st) in
  let stub =
    Sim_asm.Asm.assemble ~base:Layout.interp_code_base
      (stub_items st ~prep ~fin)
  in
  st.handler_addr <- Sim_asm.Asm.symbol stub "sigsys_handler";
  st.stub_lo <- stub.Sim_asm.Asm.base;
  (* The filter/SUD check sees the instruction pointer *after* the
     syscall instruction, so the exempt range must extend past the
     stub's final (sigreturn) instruction. *)
  st.stub_hi <- stub.Sim_asm.Asm.base + String.length stub.Sim_asm.Asm.bytes + 16;
  Mem.map t.mem ~addr:stub.Sim_asm.Asm.base
    ~len:(String.length stub.Sim_asm.Asm.bytes) ~perm:Mem.rx;
  Mem.poke_bytes t.mem stub.Sim_asm.Asm.base stub.Sim_asm.Asm.bytes;
  t.sighand.(Defs.sigsys) <-
    {
      sa_handler = i64 st.handler_addr;
      sa_mask = 0L;
      (* SA_NODEFER, as every SECCOMP_RET_TRAP interposer must: an app
         restorer's rt_sigreturn can trap *inside* our handler window,
         and a masked forced SIGSYS is fatal. *)
      sa_flags = i64 Defs.sa_nodefer;
      sa_restorer = 0L;
    };
  st
