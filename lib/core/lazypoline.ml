(** lazypoline: exhaustive, expressive and efficient syscall
    interposition via hybrid SUD + lazy binary rewriting.

    The mechanism, exactly as in the paper:

    - {b Slow path} (exhaustive): Syscall User Dispatch is enabled
      with a per-task %gs-relative selector byte and {e no}
      allowlisted code range.  A syscall executed while the selector
      is BLOCK raises SIGSYS.  Our handler rewrites the faulting
      [syscall] instruction to [call rax] (same size, in place, under
      a spinlock and an mprotect RW/RX flip), emulates the call push,
      redirects the saved context to the shared fast-path entry, and
      sigreturns with the selector {e still ALLOW} — the
      "selector-only SUD" design of Section IV-A-c.

    - {b Fast path} (efficient): the rewritten [call rax] lands in a
      zpoline-style nop sled on the page at VA 0 (the syscall number
      is in [rax] per the ABI) and slides into the interposer entry.
      The entry sets the selector to ALLOW, runs the hook, executes
      the real syscall, restores the selector to BLOCK and returns.

    - {b Signal wrapping} (Fig. 3): application [rt_sigaction] calls
      are interposed; the kernel gets a wrapper handler that pushes
      the current selector on a %gs-relative sigreturn stack and sets
      BLOCK before tail-jumping to the application handler.  The
      handler's [rt_sigreturn] is itself interposed and is redirected
      through the {e sigreturn trampoline}, which restores the saved
      selector after the kernel restored the application context.

    - {b xstate preservation} (Section IV-B-b): optionally, all
      SSE/x87 state is saved to a per-task xsave-area stack on entry
      and restored on exit, making the interposer safe for
      applications that expect the kernel's register-preservation
      guarantees. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Sim_kernel
open Types

(* This file is the library's main module: re-export the public
   companions so users can say [Lazypoline.Hook] etc. *)
module Hook = Hook
module Layout = Layout

type stats = {
  mutable rewrites : int;  (** syscall sites rewritten to [call rax] *)
  mutable slow_hits : int;  (** SIGSYS slow-path interceptions *)
  mutable fast_hits : int;  (** fast-path entries *)
  mutable signals_wrapped : int;
  mutable sigreturns_redirected : int;
  mutable xstate_overflows : int;
}

type t = {
  kernel : kernel;
  hook : Hook.t;
  preserve_xstate : bool;
  enable_sud : bool;
  protect_selector : bool;
      (** Section VI hardening: the gs area (selector byte, stacks)
          is tagged with a protection key; stubs open a write window
          with [wrpkru] and close it again, so application code
          cannot flip the selector. *)
  stats : stats;
  mutable entry_addr : int;
  mutable trampoline_addr : int;
  mutable restorer_addr : int;
  mutable wrapper_addr : int;
  (* App-visible sigaction shadow: (tgid, sig) -> (handler, mask,
     flags, restorer). *)
  app_handlers : (int * int, int64 * int64 * int64 * int64) Hashtbl.t;
  known_tasks : (int, unit) Hashtbl.t;
  (* clone-with-new-stack: the caller's rsi is temporarily redirected
     (see [prep_clone]); restored at exit, keyed by tid. *)
  clone_rsi : (int, int64) Hashtbl.t;
}

let to_i = Int64.to_int
let i64 = Int64.of_int

let gs_read_u64 (t : task) off = Mem.peek_u64 t.mem (t.ctx.Cpu.gs_base + off)
let gs_write_u64 (t : task) off v = Mem.poke_u64 t.mem (t.ctx.Cpu.gs_base + off) v
let gs_read_u8 (t : task) off = Mem.peek_u8 t.mem (t.ctx.Cpu.gs_base + off)
let gs_write_u8 (t : task) off v = Mem.poke_u8 t.mem (t.ctx.Cpu.gs_base + off) v

let set_selector (t : task) v = gs_write_u8 t Layout.gs_selector v

(* Selector writes from the hypercall handlers, visible to the event
   tracer.  (The stubs' own inline %gs stores are plain machine-code
   stores and stay untraced.) *)
let set_selector_traced (st : t) (tk : task) v =
  set_selector tk v;
  if st.kernel.observers <> [] then
    emit st.kernel
      (Trace
         (Sim_trace.Event.Selector_flip
            { allow = v = Defs.syscall_dispatch_filter_allow }))

(* Scribble over the caller-saved vector registers, as interposer C
   code compiled with SSE would. *)
let clobber_xstate (t : task) =
  for i = 0 to 7 do
    Cpu.set_xmm_lo t.ctx.Cpu.x i 0xDEAD_BEEF_DEAD_BEEFL;
    Cpu.set_xmm_hi t.ctx.Cpu.x i 0xDEAD_BEEF_DEAD_BEEFL
  done;
  t.ctx.Cpu.x.Cpu.st_sp <- 0

(** {1 xstate stack} *)

(* Address of xsave-stack slot [d] in [t]'s gs area. *)
let xstack_slot (t : task) d =
  t.ctx.Cpu.gs_base + Layout.gs_xstack_base + (d * Layout.gs_xstack_frame)

let xstate_push (st : t) (t : task) =
  charge st.kernel st.kernel.cost.xsave;
  let depth = to_i (gs_read_u64 t Layout.gs_xstack_depth) in
  if depth >= Layout.gs_xstack_slots then
    st.stats.xstate_overflows <- st.stats.xstate_overflows + 1
  else begin
    Cpu.xstate_save t.ctx.Cpu.x t.mem (xstack_slot t depth);
    gs_write_u64 t Layout.gs_xstack_depth (i64 (depth + 1))
  end

let xstate_pop (st : t) (t : task) =
  charge st.kernel st.kernel.cost.xrstor;
  let depth = to_i (gs_read_u64 t Layout.gs_xstack_depth) in
  if depth > 0 then begin
    Cpu.xstate_load t.ctx.Cpu.x t.mem (xstack_slot t (depth - 1));
    gs_write_u64 t Layout.gs_xstack_depth (i64 (depth - 1))
  end

(** {1 New-task initialisation (fork/clone children)}

    SUD is deactivated by the kernel on fork/clone, so the first time
    a new task reaches the interposer exit we give it a fresh
    %gs-region, re-enable SUD on it, and inherit the parent's wrapped
    signal handlers (Section IV-B-a). *)

let init_new_task (st : t) (k : kernel) (t : task) =
  (* Recover the xstate the parent's entry saved: the child inherited
     the parent's gs region (copied for fork, shared for threads). *)
  if st.preserve_xstate && t.ctx.Cpu.gs_base <> 0 then begin
    let depth = try to_i (gs_read_u64 t Layout.gs_xstack_depth) with Mem.Fault _ -> 0 in
    if depth > 0 then begin
      charge k k.cost.xrstor;
      Cpu.xstate_load t.ctx.Cpu.x t.mem (xstack_slot t (depth - 1))
    end
  end;
  (* Fresh per-task region, mapped with a real (charged) mmap. *)
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
  if st.protect_selector then
    ignore
      (Kernel.kernel_syscall k t Defs.sys_pkey_mprotect
         [|
           i64 addr; i64 Layout.gs_size;
           i64 (Defs.prot_read lor Defs.prot_write);
           i64 Layout.selector_pkey;
         |]);
  if st.enable_sud then
    ignore
      (Kernel.kernel_syscall k t Defs.sys_prctl
         [|
           i64 Defs.pr_set_syscall_user_dispatch;
           i64 Defs.pr_sys_dispatch_on; 0L; 0L;
           i64 (addr + Layout.gs_selector);
         |]);
  (* The child continues in the exit stub, whose tail sets the
     selector to BLOCK through the fresh %gs. *)
  (* Inherit the parent's wrapped handlers under the child's tgid. *)
  (match find_task k t.parent_tid with
  | Some parent when parent.tgid <> t.tgid ->
      Hashtbl.iter
        (fun (tg, sg) v ->
          if tg = parent.tgid then Hashtbl.replace st.app_handlers (t.tgid, sg) v)
        (Hashtbl.copy st.app_handlers)
  | _ -> ());
  Hashtbl.replace st.known_tasks t.tid ()

(** {1 rt_sigaction emulation (signal wrapping)} *)

let emulate_sigaction (st : t) (k : kernel) (t : task) =
  let c = t.ctx in
  let sig_ = Cpu.peek_reg_int c Isa.rdi in
  let act_ptr = Cpu.peek_reg_int c Isa.rsi in
  let old_ptr = Cpu.peek_reg_int c Isa.rdx in
  let result =
    if sig_ < 1 || sig_ > Defs.nsig || sig_ = Defs.sigkill
       || sig_ = Defs.sigstop
    then i64 (-Defs.einval)
    else begin
      let prev = Hashtbl.find_opt st.app_handlers (t.tgid, sig_) in
      (* Serve the app's request for the previous action from our
         shadow (the kernel holds our wrapper, not the app handler). *)
      (if old_ptr <> 0 then
         let h, m, f, r =
           match prev with
           | Some v -> v
           | None ->
               let a = t.sighand.(sig_) in
               (* Never leak our own handlers to the app. *)
               if a.sa_handler = i64 st.wrapper_addr then (0L, 0L, 0L, 0L)
               else (a.sa_handler, a.sa_mask, a.sa_flags, a.sa_restorer)
         in
         Mem.poke_u64 t.mem old_ptr h;
         Mem.poke_u64 t.mem (old_ptr + 8) m;
         Mem.poke_u64 t.mem (old_ptr + 16) f;
         Mem.poke_u64 t.mem (old_ptr + 24) r);
      if act_ptr = 0 then 0L
      else begin
        let h = Mem.peek_u64 t.mem act_ptr in
        let m = Mem.peek_u64 t.mem (act_ptr + 8) in
        let f = Mem.peek_u64 t.mem (act_ptr + 16) in
        let r = Mem.peek_u64 t.mem (act_ptr + 24) in
        if h = Defs.sig_dfl || h = Defs.sig_ign then begin
          Hashtbl.remove st.app_handlers (t.tgid, sig_);
          Kernel.kernel_syscall k t Defs.sys_rt_sigaction
            [| i64 sig_; i64 act_ptr; 0L |]
        end
        else if sig_ = Defs.sigsys then begin
          (* Our own SIGSYS registration must stay; remember the app's
             wish but do not install it (documented limitation,
             matching the real tool). *)
          Hashtbl.replace st.app_handlers (t.tgid, sig_) (h, m, f, r);
          0L
        end
        else begin
          st.stats.signals_wrapped <- st.stats.signals_wrapped + 1;
          Hashtbl.replace st.app_handlers (t.tgid, sig_) (h, m, f, r);
          (* Stage the modified sigaction in our scratch page and
             install it with a real (charged) syscall. *)
          let scratch = Layout.interp_data_base + Layout.scratch_sigaction in
          Mem.poke_u64 t.mem scratch (i64 st.wrapper_addr);
          Mem.poke_u64 t.mem (scratch + 8) m;
          Mem.poke_u64 t.mem (scratch + 16) f;
          Mem.poke_u64 t.mem (scratch + 24) (i64 st.restorer_addr);
          Kernel.kernel_syscall k t Defs.sys_rt_sigaction
            [| i64 sig_; i64 scratch; 0L |]
        end
      end
    end
  in
  Cpu.poke_reg c Isa.rax result;
  (* The app's rt_sigaction never reaches the dispatcher (we emulated
     it), but it *is* part of the application's observable syscall
     history — synthesize the audit record the dispatcher would have
     produced, so a lazypoline stream still matches a raw run. *)
  if k.observers <> [] then
    finish k
      (Syscall_result
         {
           task = t; nr = Defs.sys_rt_sigaction;
           path =
             (match t.trace_path with
             | Some p -> p
             | None -> Sim_trace.Event.Fast_path);
           args = Cpu.pack_regs c Hook.arg_regs; ts0 = now k;
           serviced = now k; ret = result; blocked = false; scope = App;
         });
  (* The suppressed syscall never dispatches: a dispatch-path tag
     staged for it (SUD slow path) must not leak onto the next one. *)
  t.trace_path <- None;
  (* Suppress the stub's syscall instruction. *)
  c.rip <- c.rip + 2

(** {1 clone interposition}

    A clone with a fresh child stack resumes the child inside the
    shared epilogue, whose [ret] pops a return address — but the new
    stack has none.  Like the real rewriters, we replicate the
    caller's return address at the top of the child stack and hand the
    kernel the adjusted stack pointer (the caller's [rsi] is restored
    on exit). *)

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

(** {1 rt_sigreturn interposition}

    Cannot restore the selector before the sigreturn (that would
    recursively trigger interception), so we route the resumed
    context through the sigreturn trampoline (Section IV-B-c). *)

let prep_sigreturn (st : t) (k : kernel) (t : task) =
  ignore k;
  let c = t.ctx in
  st.stats.sigreturns_redirected <- st.stats.sigreturns_redirected + 1;
  (* Drop the return address the fast-path call pushed: rt_sigreturn
     never returns, and the kernel locates the frame from rsp. *)
  let rsp = Cpu.peek_reg_int c Isa.rsp + 8 in
  Cpu.poke_reg_int c Isa.rsp rsp;
  let f = rsp - 8 in
  let depth = to_i (gs_read_u64 t Layout.gs_sigstack_depth) in
  if depth > 0 then begin
    let entry =
      t.ctx.Cpu.gs_base + Layout.gs_sigstack_base
      + ((depth - 1) * Layout.gs_sigstack_entry)
    in
    let resume = Mem.peek_u64 t.mem (f + 40 + Ksignal.uc_rip_off) in
    Mem.poke_u64 t.mem (entry + 8) resume;
    Mem.poke_u64 t.mem (f + 40 + Ksignal.uc_rip_off) (i64 st.trampoline_addr)
  end
(* The stub's syscall now performs the real rt_sigreturn. *)

(** {1 The hypercall handlers} *)

let hyper_enter (st : t) (k : kernel) (t : task) =
  let c = t.ctx in
  charge k (Layout.hook_save_cost + Layout.gs_bookkeeping_cost);
  st.stats.fast_hits <- st.stats.fast_hits + 1;
  let nr = Cpu.peek_reg_int c Isa.rax in
  let returns_to_app =
    nr <> Defs.sys_rt_sigreturn && nr <> Defs.sys_exit
    && nr <> Defs.sys_exit_group && nr <> Defs.sys_execve
  in
  if st.preserve_xstate && returns_to_app then xstate_push st t;
  if st.hook.Hook.clobbers_xstate then clobber_xstate t;
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
      args =
        Array.map (fun r -> Cpu.peek_reg c r) Hook.arg_regs;
      site;
    }
  in
  match st.hook.Hook.on_syscall ctx with
  | Hook.Return v ->
      (* Suppress the syscall: balance the xstate stack we just
         pushed (the pop also undoes any hook clobbering).  The
         suppressed syscall never dispatches, so any dispatch-path
         tag staged for it must not leak onto the next one. *)
      t.trace_path <- None;
      if st.preserve_xstate && returns_to_app then xstate_pop st t;
      Cpu.poke_reg c Isa.rax v;
      c.rip <- c.rip + 2
  | Hook.Emulate ->
      (* The hook may have rewritten the syscall number. *)
      let nr = Cpu.peek_reg_int c Isa.rax in
      if nr = Defs.sys_rt_sigaction then emulate_sigaction st k t
      else begin
        (* The stub's [syscall] instruction below carries the real
           dispatch: tag it as the interposer fast path, unless the
           SUD slow path already claimed this in-flight syscall.
           (rt_sigaction is excluded: it suppresses the stub's
           syscall entirely.) *)
        if observing k && t.trace_path = None then
          t.trace_path <- Some Sim_trace.Event.Fast_path;
        if nr = Defs.sys_rt_sigreturn then prep_sigreturn st k t
        else if nr = Defs.sys_clone then prep_clone st t
      end

let hyper_exit (st : t) (k : kernel) (t : task) =
  charge k (Layout.hook_restore_cost + Layout.gs_bookkeeping_cost);
  (* restore the caller's rsi after a clone (see prep_clone) *)
  (match Hashtbl.find_opt st.clone_rsi t.tid with
  | Some rsi ->
      Hashtbl.remove st.clone_rsi t.tid;
      Cpu.poke_reg t.ctx Isa.rsi rsi
  | None -> ());
  if not (Hashtbl.mem st.known_tasks t.tid) then init_new_task st k t
  else if st.preserve_xstate then xstate_pop st t

let hyper_sigwrap (st : t) (k : kernel) (t : task) =
  charge k 10;
  let c = t.ctx in
  let depth = to_i (gs_read_u64 t Layout.gs_sigstack_depth) in
  if depth < Layout.gs_sigstack_slots then begin
    let entry =
      t.ctx.Cpu.gs_base + Layout.gs_sigstack_base
      + (depth * Layout.gs_sigstack_entry)
    in
    Mem.poke_u64 t.mem entry (i64 (gs_read_u8 t Layout.gs_selector));
    gs_write_u64 t Layout.gs_sigstack_depth (i64 (depth + 1))
  end;
  set_selector_traced st t Defs.syscall_dispatch_filter_block;
  let sig_ = Cpu.peek_reg_int c Isa.rdi in
  let handler =
    match Hashtbl.find_opt st.app_handlers (t.tgid, sig_) with
    | Some (h, _, _, _) -> h
    | None ->
        (* No recorded handler (should not happen): return straight to
           the restorer, which sigreturns and pops our entry. *)
        i64 st.restorer_addr
  in
  Cpu.poke_reg c Isa.rax handler
(* the stub then does: jmp rax *)

let hyper_sigreturn_trampoline (st : t) (k : kernel) (t : task) =
  charge k 8;
  (* models the trampoline's own wrpkru open/store/close sequence *)
  if st.protect_selector then charge k (2 * 23);
  let c = t.ctx in
  let depth = to_i (gs_read_u64 t Layout.gs_sigstack_depth) in
  if depth > 0 then begin
    let entry =
      t.ctx.Cpu.gs_base + Layout.gs_sigstack_base
      + ((depth - 1) * Layout.gs_sigstack_entry)
    in
    gs_write_u64 t Layout.gs_sigstack_depth (i64 (depth - 1));
    let sel = to_i (Mem.peek_u64 t.mem entry) in
    let resume = to_i (Mem.peek_u64 t.mem (entry + 8)) in
    set_selector_traced st t (sel land 0xFF);
    c.rip <- resume
  end
  else
    (* Unbalanced trampoline entry: fatal (surfaces bugs loudly). *)
    Ksignal.kill_task_group k t ~code:(128 + Defs.sigsys)

(** The SIGSYS slow path: locate, rewrite, redirect. *)
let hyper_sigsys (st : t) (k : kernel) (t : task) =
  let c = t.ctx in
  charge k Layout.slowpath_body_cost;
  st.stats.slow_hits <- st.stats.slow_hits + 1;
  let si = Cpu.peek_reg_int c Isa.rsi in
  let call_addr = to_i (Mem.peek_u64 t.mem (si + Ksignal.si_call_addr_off)) in
  let uc = Cpu.peek_reg_int c Isa.rdx in
  let site = call_addr - 2 in
  (* We will sigreturn with the selector still ALLOW; the redirected
     entry point re-blocks it when done (selector-only SUD). *)
  set_selector_traced st t Defs.syscall_dispatch_filter_allow;
  (* Rewrite the faulting instruction — it is guaranteed to be a
     real, aligned syscall instruction because the kernel identified
     it for us.  We still check, defensively.

     This is the self-modifying-code hazard the decoded-instruction
     cache must survive: the task has already *executed* (and so
     cached) this syscall instruction.  Both the mprotect flips and
     the write itself bump the page's generation in [Mem], so the
     very next fetch of [site] sees the patched [call rax] — the
     icache cannot serve the stale [syscall] by construction (the
     headline case in test_icache). *)
  (match Mem.peek_bytes t.mem site 2 with
  | "\x0f\x05" ->
      charge k Layout.rewrite_lock_cost;
      let page = site land lnot (Mem.page_size - 1) in
      let len = site + 2 - page in
      let orig_perm =
        match Mem.perm_at t.mem site with Some p -> p | None -> Mem.rx
      in
      let prot_of p =
        (if p land Mem.p_r <> 0 then Defs.prot_read else 0)
        lor (if p land Mem.p_w <> 0 then Defs.prot_write else 0)
        lor if p land Mem.p_x <> 0 then Defs.prot_exec else 0
      in
      ignore
        (Kernel.kernel_syscall k t Defs.sys_mprotect
           [|
             i64 page; i64 len;
             i64 (Defs.prot_read lor Defs.prot_write);
           |]);
      Mem.write_bytes t.mem site "\xff\xd0" (* call rax *);
      ignore
        (Kernel.kernel_syscall k t Defs.sys_mprotect
           [| i64 page; i64 len; i64 (prot_of orig_perm) |]);
      st.stats.rewrites <- st.stats.rewrites + 1;
      if k.observers <> [] then
        emit k (Rewrite { site; how = Sim_obs.Provenance.Rw_lazy })
  | _ -> ()
  | exception Mem.Fault _ -> ());
  (* Redirect the interrupted context to the shared entry point,
     emulating the call push so fast and slow path share one
     implementation. *)
  let app_rsp = to_i (Mem.peek_u64 t.mem (uc + Ksignal.uc_gpr_off Isa.rsp)) in
  let new_rsp = app_rsp - 8 in
  (try Mem.write_u64 t.mem new_rsp (i64 call_addr)
   with Mem.Fault _ -> ());
  Mem.poke_u64 t.mem (uc + Ksignal.uc_gpr_off Isa.rsp) (i64 new_rsp);
  Mem.poke_u64 t.mem (uc + Ksignal.uc_rip_off) (i64 st.entry_addr)
(* the stub then pops the handler frame slot and rt_sigreturns with
   the selector set to ALLOW *)

(** {1 Installation} *)

let fresh_stats () =
  {
    rewrites = 0;
    slow_hits = 0;
    fast_hits = 0;
    signals_wrapped = 0;
    sigreturns_redirected = 0;
    xstate_overflows = 0;
  }

(** Build the interposer's runtime stubs.  All control transfers into
    OCaml happen through hypercall instructions embedded in these
    (simulated) code pages; everything else is real machine code. *)
let stub_items ~mpk ~enter ~exit_ ~sigsys ~sigwrap ~tramp =
  let open Sim_asm.Asm in
  (* With selector protection, stubs open a PKRU write window on entry
     and close it before returning to application code.  The SIGSYS
     handler needs no explicit close: the kernel's sigreturn restores
     the interrupted context's PKRU from the frame. *)
  let open_w = if mpk then Layout.(wrpkru_items pkru_allow_all) else [] in
  let close_w = if mpk then Layout.(wrpkru_items pkru_deny_selector) else [] in
  [ Label "syscall_entry" ]
  @ open_w
  @ Layout.set_selector_items Defs.syscall_dispatch_filter_allow
  @ [ hypercall enter; Label "emulated_syscall"; syscall; hypercall exit_ ]
  @ Layout.set_selector_items Defs.syscall_dispatch_filter_block
  @ close_w
  @ [ ret; Label "sigsys_handler" ]
  @ open_w
  @ [
      hypercall sigsys;
      add_ri Isa.rsp 8;
      mov_ri Isa.rax Defs.sys_rt_sigreturn;
      syscall;
      Label "wrapper_handler";
    ]
  @ open_w
  @ [ hypercall sigwrap ]
  @ close_w
  @ [
      jmp_reg Isa.rax;
      Label "wrapper_restorer";
      mov_ri Isa.rax Defs.sys_rt_sigreturn;
      syscall;
      Label "sigreturn_trampoline";
      hypercall tramp;
    ]

(** Map a fresh %gs area for [t] and point its gs base at it
    (install-time equivalent of what {!init_new_task} does through
    real syscalls at run time). *)
let setup_gs_area (t : task) =
  let addr = Mem.find_free t.mem ~hint:0x1800_0000 ~len:Layout.gs_size in
  Mem.map t.mem ~addr ~len:Layout.gs_size ~perm:Mem.rw;
  t.ctx.Cpu.gs_base <- addr;
  addr

(** Install lazypoline into [t]'s process, as an LD_PRELOADed
    constructor would: map the trampoline and stub pages, set up the
    per-task %gs area, register the SIGSYS handler, enable SUD with
    selector = BLOCK.  Returns the handle carrying stats and
    configuration.

    [preserve_xstate:false] reproduces the paper's
    "lazypoline without xstate preservation" configuration;
    [enable_sud:false] its Fig. 4 "fast path only" configuration
    (no slow path: only pre-rewritten sites are interposed). *)
let install ?(preserve_xstate = true) ?(enable_sud = true)
    ?(protect_selector = false) (k : kernel) (t : task) (hook : Hook.t) : t =
  let st =
    {
      kernel = k;
      hook;
      preserve_xstate;
      enable_sud;
      protect_selector;
      stats = fresh_stats ();
      entry_addr = 0;
      trampoline_addr = 0;
      restorer_addr = 0;
      wrapper_addr = 0;
      app_handlers = Hashtbl.create 8;
      known_tasks = Hashtbl.create 8;
      clone_rsi = Hashtbl.create 4;
    }
  in
  let enter = Kernel.register_hypercall k (hyper_enter st) in
  let exit_ = Kernel.register_hypercall k (hyper_exit st) in
  let sigsys = Kernel.register_hypercall k (hyper_sigsys st) in
  let sigwrap = Kernel.register_hypercall k (hyper_sigwrap st) in
  let tramp = Kernel.register_hypercall k (hyper_sigreturn_trampoline st) in
  let stub =
    Sim_asm.Asm.assemble ~base:Layout.interp_code_base
      (stub_items ~mpk:protect_selector ~enter ~exit_ ~sigsys ~sigwrap ~tramp)
  in
  st.entry_addr <- Sim_asm.Asm.symbol stub "syscall_entry";
  st.trampoline_addr <- Sim_asm.Asm.symbol stub "sigreturn_trampoline";
  st.restorer_addr <- Sim_asm.Asm.symbol stub "wrapper_restorer";
  st.wrapper_addr <- Sim_asm.Asm.symbol stub "wrapper_handler";
  (* Map stub code (RX) and scratch page (RW). *)
  Mem.map t.mem ~addr:stub.Sim_asm.Asm.base
    ~len:(String.length stub.Sim_asm.Asm.bytes) ~perm:Mem.rx;
  Mem.poke_bytes t.mem stub.Sim_asm.Asm.base stub.Sim_asm.Asm.bytes;
  Mem.map t.mem ~addr:Layout.interp_data_base ~len:Mem.page_size ~perm:Mem.rw;
  (* zpoline trampoline page at VA 0. *)
  let tramp_blob = Layout.trampoline_blob ~entry:st.entry_addr in
  Mem.map t.mem ~addr:0 ~len:(String.length tramp_blob.Sim_asm.Asm.bytes)
    ~perm:Mem.rx;
  Mem.poke_bytes t.mem 0 tramp_blob.Sim_asm.Asm.bytes;
  (* Per-task gs area; selector starts BLOCKed. *)
  let gs_addr = setup_gs_area t in
  set_selector t Defs.syscall_dispatch_filter_block;
  if protect_selector then begin
    (match
       Mem.set_pkey t.mem ~addr:gs_addr ~len:Layout.gs_size
         ~pkey:Layout.selector_pkey
     with
    | Ok () -> ()
    | Error `Unmapped -> assert false);
    t.ctx.Cpu.pkru <- Layout.pkru_deny_selector
  end;
  (* Our SIGSYS handler (slow path). *)
  t.sighand.(Defs.sigsys) <-
    {
      sa_handler = i64 (Sim_asm.Asm.symbol stub "sigsys_handler");
      sa_mask = 0L;
      sa_flags = 0L;
      sa_restorer = 0L;
    };
  if enable_sud then begin
    t.sud.sud_on <- true;
    t.sud.sud_lo <- 0;
    t.sud.sud_len <- 0;
    t.sud.sud_selector <- gs_addr + Layout.gs_selector
  end;
  Hashtbl.replace st.known_tasks t.tid ();
  st

(** Pre-rewrite a known syscall site to [call rax], as the paper's
    microbenchmark does to measure pure steady-state overhead
    ("we manually rewrote the syscall instruction up front").  The
    site must currently hold a syscall instruction.  [poke_bytes]
    bumps the page generation, invalidating any cached decode of the
    site. *)
let rewrite_site (st : t) (t : task) ~addr =
  match Mem.peek_bytes t.mem addr 2 with
  | "\x0f\x05" ->
      Mem.poke_bytes t.mem addr "\xff\xd0";
      if st.kernel.observers <> [] then
        emit st.kernel
          (Rewrite { site = addr; how = Sim_obs.Provenance.Rw_manual })
  | _ -> invalid_arg "rewrite_site: not a syscall instruction"
  | exception Mem.Fault _ -> invalid_arg "rewrite_site: unmapped"
