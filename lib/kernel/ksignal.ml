(** Signal delivery and [rt_sigreturn].

    Signal frames live in simulated user memory with a fixed layout,
    so user-space code — in particular the interposer's SIGSYS
    handler — can inspect and *modify* the saved context exactly the
    way lazypoline rewrites [REG_RIP] in the real ucontext.

    Frame layout, relative to the frame base [F] (16-byte aligned;
    [rsp] at handler entry equals [F]):

    {v
    F+  0  return address for the handler (sa_restorer)
    F+  8  siginfo: si_signo
    F+ 16           si_code
    F+ 24           si_call_addr
    F+ 32           si_syscall
    F+ 40  ucontext: 16 GPRs            (uc+0   .. uc+127)
    F+168            saved rip           (uc+128)
    F+176            flags (zf|sf|cf)    (uc+136)
    F+184            saved sigmask       (uc+144)
    F+192            xstate              (uc+152, 328 bytes)
    v}

    Handler-entry registers follow the SysV signal ABI:
    [rdi = signo], [rsi = &siginfo = F+8], [rdx = &ucontext = F+40]. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Types

let frame_size = 528
let redzone = 128

(* ucontext-relative offsets (add to the pointer in rdx). *)
let uc_gpr_off r = 8 * r
let uc_rip_off = 128
let uc_flags_off = 136
let uc_mask_off = 144
let uc_xstate_off = 152
let uc_pkru_off = 480  (* after the 328-byte xstate *)

(* siginfo-relative offsets (add to the pointer in rsi). *)
let si_signo_off = 0
let si_code_off = 8
let si_call_addr_off = 16
let si_syscall_off = 24

let default_ignored s =
  s = Defs.sigchld || s = Defs.sigcont || s = 28 (* SIGWINCH *) || s = 23
  (* SIGURG *)

exception Killed_by_signal of task * int

(** Terminate [t] (and, for a fatal signal, its whole thread group)
    without running user code.  Registered exit work is the caller's
    job; we only flip states here. *)
let kill_task_group (k : kernel) (t : task) ~code =
  let victims =
    Hashtbl.fold
      (fun _ u acc ->
        if u.tgid = t.tgid && u.state <> Zombie then u :: acc else acc)
      k.tasks []
  in
  List.iter
    (fun u ->
      u.exit_code <- code;
      u.state <- Zombie;
      u.on_cpu <- -1)
    victims

let flags_word (c : Cpu.t) =
  (if c.zf then 1 else 0) lor (if c.sf then 2 else 0) lor if c.cf then 4 else 0

let set_flags_word (c : Cpu.t) (v : int64) =
  let v = Int64.to_int v in
  c.zf <- v land 1 <> 0;
  c.sf <- v land 2 <> 0;
  c.cf <- v land 4 <> 0

(** Queue [sig_] for [t].  [info] travels with it (SIGSYS carries the
    syscall number and call address). *)
let post (k : kernel) (t : task) ?(info : sig_info option) (sig_ : int) =
  ignore k;
  if t.state <> Zombie then begin
    t.pending <- Int64.logor t.pending (sig_bit sig_);
    (match info with
    | Some i ->
        t.pending_info <-
          (sig_, i) :: List.remove_assoc sig_ t.pending_info
    | None -> ())
  end

(** Build the frame for [sig_] and redirect [t] to its handler.
    Assumes a handler is installed (callers check).  Charges the
    signal-delivery cost. *)
let push_frame (k : kernel) (t : task) (sig_ : int) (info : sig_info) =
  let act = t.sighand.(sig_) in
  let c = t.ctx in
  enter_kernel k;
  charge k k.cost.signal_delivery;
  (* Audit classification: a SIGSYS raised by SUD or a seccomp TRAP
     filter is interposition plumbing (mechanism-private); any other
     delivery is part of the application's observable history. *)
  if k.observers <> [] then
    emit k
      (Signal_deliver
         {
           task = t;
           signo = sig_;
           handler = Int64.to_int act.sa_handler;
           mech =
             sig_ = Defs.sigsys
             && (info.si_code = Defs.sys_seccomp_code
                || info.si_code = Defs.sys_user_dispatch_code);
         });
  t.sig_depth <- t.sig_depth + 1;
  let sp = Cpu.peek_reg_int c Isa.rsp in
  let f = (sp - redzone - frame_size) land lnot 15 in
  let uc = f + 40 in
  (try
     (* The kernel writes the frame regardless of page protections
        (it is the kernel), in ascending address order; an unmapped
        stack is a fatal fault.  The GPR block and the xstate are one
        blit each. *)
     Mem.poke_u64 t.mem (f + 0) act.sa_restorer;
     Mem.poke_u64 t.mem (f + 8) (Int64.of_int info.si_signo);
     Mem.poke_u64 t.mem (f + 16) (Int64.of_int info.si_code);
     Mem.poke_u64 t.mem (f + 24) (Int64.of_int info.si_call_addr);
     Mem.poke_u64 t.mem (f + 32) (Int64.of_int info.si_syscall);
     Mem.poke_from t.mem uc c.regs 0 Cpu.gpr_bytes;
     Mem.poke_u64 t.mem (uc + uc_rip_off) (Int64.of_int c.rip);
     Mem.poke_u64 t.mem (uc + uc_flags_off)
       (Int64.of_int (flags_word c));
     Mem.poke_u64 t.mem (uc + uc_mask_off) t.sigmask;
     (* xstate (and PKRU, which lives in xstate on real parts) is
        saved with kernel privilege as well. *)
     Cpu.xstate_save c.x t.mem (uc + uc_xstate_off);
     Mem.poke_u64 t.mem (uc + uc_pkru_off) (Int64.of_int c.pkru)
   with Mem.Fault _ ->
     kill_task_group k t ~code:(128 + Defs.sigsegv);
     raise (Killed_by_signal (t, Defs.sigsegv)));
  (* Enter the handler. *)
  Cpu.poke_reg_int c Isa.rsp f;
  Cpu.poke_reg_int c Isa.rdi sig_;
  Cpu.poke_reg_int c Isa.rsi (f + 8);
  Cpu.poke_reg_int c Isa.rdx uc;
  c.rip <- Int64.to_int act.sa_handler;
  (* SA_NODEFER: leave the signal itself deliverable while its handler
     runs (sa_mask still applies). *)
  let self =
    if Int64.logand act.sa_flags (Int64.of_int Defs.sa_nodefer) <> 0L then 0L
    else sig_bit sig_
  in
  t.sigmask <- Int64.logor t.sigmask (Int64.logor act.sa_mask self)

(** Deliver one pending, unmasked signal if any.  Returns [true] when
    user-visible control flow changed (handler entered or task
    killed). *)
let deliver_pending (k : kernel) (t : task) : bool =
  let deliverable = Int64.logand t.pending (Int64.lognot t.sigmask) in
  if deliverable = 0L then false
  else begin
    (* Lowest-numbered signal first, like Linux. *)
    let rec first s =
      if s > Defs.nsig then None
      else if Int64.logand deliverable (sig_bit s) <> 0L then Some s
      else first (s + 1)
    in
    match first 1 with
    | None -> false
    | Some sig_ ->
        t.pending <- Int64.logand t.pending (Int64.lognot (sig_bit sig_));
        let info =
          match List.assoc_opt sig_ t.pending_info with
          | Some i -> i
          | None ->
              { si_signo = sig_; si_code = 0; si_call_addr = 0; si_syscall = 0 }
        in
        t.pending_info <- List.remove_assoc sig_ t.pending_info;
        let act = t.sighand.(sig_) in
        if act.sa_handler = Defs.sig_ign then false
        else if act.sa_handler = Defs.sig_dfl then
          if default_ignored sig_ then false
          else begin
            kill_task_group k t ~code:(128 + sig_);
            true
          end
        else begin
          push_frame k t sig_ info;
          true
        end
  end

(** First pending, unmasked signal that would actually do something
    (run a handler or kill) — the one [deliver_pending] will pick.
    Ignored signals must not interrupt blocked syscalls. *)
let first_actionable (t : task) : int option =
  let deliverable = Int64.logand t.pending (Int64.lognot t.sigmask) in
  let rec scan s =
    if s > Defs.nsig then None
    else if Int64.logand deliverable (sig_bit s) <> 0L then
      let act = t.sighand.(s) in
      if act.sa_handler = Defs.sig_ign then scan (s + 1)
      else if act.sa_handler = Defs.sig_dfl && default_ignored s then
        scan (s + 1)
      else Some s
    else scan (s + 1)
  in
  if deliverable = 0L then None else scan 1

let has_actionable_signal (t : task) = first_actionable t <> None

(** Force-deliver [sig_]: used for synchronous faults (SIGSEGV,
    SIGILL, SIGFPE, seccomp/SUD SIGSYS).  If the signal is masked or
    has no handler, the task dies — matching the kernel's
    [force_sig_info]. *)
let force (k : kernel) (t : task) (sig_ : int) (info : sig_info) =
  let act = t.sighand.(sig_) in
  let masked = Int64.logand t.sigmask (sig_bit sig_) <> 0L in
  if masked || act.sa_handler = Defs.sig_dfl || act.sa_handler = Defs.sig_ign
  then kill_task_group k t ~code:(128 + sig_)
  else push_frame k t sig_ info

(** Implement [rt_sigreturn]: restore the context saved in the frame
    that [t]'s [rsp] currently points into (rsp = F + 8, because the
    handler's [ret] popped the restorer address and the restorer
    issued the syscall). *)
let sigreturn (k : kernel) (t : task) : unit =
  charge k k.cost.sigreturn_kernel;
  if k.observers <> [] then emit k (Sigreturn t);
  t.sig_depth <- max 0 (t.sig_depth - 1);
  let c = t.ctx in
  let uc = Cpu.peek_reg_int c Isa.rsp - 8 + 40 in
  try
    Mem.peek_into t.mem uc c.regs 0 Cpu.gpr_bytes;
    c.rip <- Int64.to_int (Mem.peek_u64 t.mem (uc + uc_rip_off));
    set_flags_word c (Mem.peek_u64 t.mem (uc + uc_flags_off));
    t.sigmask <- Mem.peek_u64 t.mem (uc + uc_mask_off);
    Cpu.xstate_load c.x t.mem (uc + uc_xstate_off);
    c.pkru <- Int64.to_int (Mem.peek_u64 t.mem (uc + uc_pkru_off)) land 0xFFFF
  with Mem.Fault _ ->
    kill_task_group k t ~code:(128 + Defs.sigsegv)
