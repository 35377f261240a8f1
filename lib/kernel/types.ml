(** Shared record types of the simulated kernel.

    Kept in one module (operations live in {!Ksignal} and {!Kernel})
    so that the scheduler, signal machinery, syscall dispatch and
    hypercall handlers can all see the same task/kernel records
    without circular dependencies. *)

open Sim_cpu
open Sim_mem
open Sim_costs

(** {1 File descriptors} *)

type epoll = { interest : (int, int * int64) Hashtbl.t }
(** epoll instance: fd -> (event mask, user data). *)

type sock_pending = { mutable bound_port : int option }

type file_kind =
  | Kreg of Vfs.open_file
  | Klisten of Net.listener
  | Kstream of Net.endpoint
  | Kepoll of epoll
  | Kunbound of sock_pending  (** socket() before listen()/connect() *)

type fd_entry = {
  mutable kind : file_kind;
  mutable fflags : int;  (** O_NONBLOCK and friends *)
  mutable refs : int;  (** shared after fork()/dup() *)
}

type fdtab = { mutable next_fd : int; fds : (int, fd_entry) Hashtbl.t }

(** {1 Signals} *)

type sigaction = {
  sa_handler : int64;  (** SIG_DFL, SIG_IGN, or handler address *)
  sa_mask : int64;
  sa_flags : int64;
  sa_restorer : int64;  (** address the handler returns to *)
}

let sigaction_default =
  { sa_handler = 0L; sa_mask = 0L; sa_flags = 0L; sa_restorer = 0L }

type sig_info = {
  si_signo : int;
  si_code : int;
  si_call_addr : int;  (** address just past the trapping syscall *)
  si_syscall : int;
}

(** {1 Syscall User Dispatch (per-task)} *)

type sud = {
  mutable sud_on : bool;
  mutable sud_selector : int;  (** user VA of the selector byte *)
  mutable sud_lo : int;  (** allowlisted code range start *)
  mutable sud_len : int;
}

(** {1 ptrace}

    The tracer is modelled as kernel-side callbacks plus the cost of
    the context switches and tracer syscalls a real tracer would
    need for every syscall-stop (see DESIGN.md: we do not simulate
    the tracer as a separate machine-code process). *)

type monitor = {
  mutable on_entry : ptrace_view -> unit;
  mutable on_exit : ptrace_view -> unit;
  tracer_syscalls_per_stop : int;
      (** PTRACE_GETREGS / SETREGS / PTRACE_SYSCALL etc. *)
}

(** The tracer's view of a stopped tracee, built once per task (see
    [task.pview]). *)
and ptrace_view = {
  pv_task : task;
  pv_get_reg : int -> int64;
  pv_set_reg : int -> int64 -> unit;
  pv_read_mem : int -> int -> string;
}

(** {1 Tasks} *)

and block_reason =
  | Wread of int  (** fd *)
  | Wwrite of int
  | Waccept of int
  | Wepoll of int
  | Wchild of int  (** tid, or -1 for any child *)
  | Wsleep of int  (** absolute wake time in cycles *)
  | Wfutex of int  (** futex word address *)

and tstate = Runnable | Blocked of block_reason | Zombie

and task = {
  tid : int;
  mutable tgid : int;
  mutable parent_tid : int;
  ctx : Cpu.t;
  mutable mem : Mem.t;
  mutable icache : Icache.t;
      (** decoded-instruction cache for [mem]; shared between threads
          (which share [mem]), fresh after fork and execve (whose
          address spaces diverge from the parent's generations) *)
  mutable fdt : fdtab;
  mutable sighand : sigaction array;  (** aliased under CLONE_SIGHAND *)
  mutable sigmask : int64;
  mutable pending : int64;
  mutable pending_info : (int * sig_info) list;
  mutable state : tstate;
  sud : sud;
  mutable filters : Bpf.prog list;
  mutable monitor : monitor option;
  mutable pview : ptrace_view option;
      (** the view handed to [monitor] at every stop, made at the
          first one *)
  mutable exit_code : int;
  mutable children : int list;
  mutable affinity : int;  (** CPU index, or -1 for any *)
  mutable on_cpu : int;  (** CPU currently executing this task, or -1 *)
  mutable last_run : int;  (** for round-robin fairness *)
  mutable cwd : string;
  mutable comm : string;
  mutable brk : int;
  mutable tid_address : int64;
  mutable robust_list : int64;
  mutable tcycles : int64;
      (** cycles charged while this task was current (its own
          execution plus kernel work done on its behalf), up to its
          last descheduling; {!task_cycles} includes the running
          slice *)
  mutable trace_path : Sim_trace.Event.dispatch_path option;
      (** dispatch-path tag for the task's next syscall, staged by the
          interposer stubs (e.g. lazypoline's fast-path entry) so the
          tracer and the metrics registry can attribute the
          kernel-side span to the mechanism that carried it; consumed
          at syscall dispatch *)
  mutable sig_depth : int;
      (** live kernel signal frames (pushed by delivery, popped by
          sigreturn); maintained unconditionally — it is cheap and
          lets the sampling profiler classify handler execution
          without perturbing anything *)
  mutable sleep_until : int option;
      (** absolute deadline of the in-progress blocking syscall
          (nanosleep, futex FUTEX_WAIT with a timeout, epoll_wait with
          a positive timeout): blocking syscalls are retried by
          re-execution, so the wait must remember its deadline to be
          idempotent.  At most one blocking syscall is in flight per
          task, so one field serves all three. *)
  mutable retrying : bool;
      (** the task's rewound syscall instruction is a retry of a
          dispatch that already blocked — set on [Block], cleared on
          the final result (or on EINTR abandonment).  The chaos
          engine keys injections on first issues only: retry counts
          are schedule-dependent and would break cross-mechanism
          injection alignment. *)
}

(** {1 Program images (for the loader and execve)} *)

type image = {
  img_segments : (int * string * int) list;  (** VA, bytes, Mem perm *)
  img_entry : int;
  img_stack_top : int;  (** initial rsp (top of stack region) *)
  img_stack_size : int;
  img_symbols : (string * int) list;
      (** absolute (name, VA) pairs from the assembler, carried so the
          sampling profiler can symbolize guest rips *)
}

(** {1 The kernel} *)

(** One CPU.  Simulated cycles are native [int]s (63 bits is ~70 years
    at 2.1 GHz), so advancing a clock allocates nothing. *)
type cpu_slot = { mutable clk : int; mutable last_tid : int }

type kernel = {
  cost : Cost_model.t;
  cpus : cpu_slot array;
  mutable cur_cpu : int;
  tasks : (int, task) Hashtbl.t;
  mutable next_tid : int;
  vfs : Vfs.t;
  net : Net.t;
  hypercalls : (int, kernel -> task -> unit) Hashtbl.t;
  mutable next_hyper : int;
  rng : Random.State.t;
  programs : (string, image) Hashtbl.t;  (** execve registry *)
  mutable actors : (unit -> unit) list;
      (** external agents (e.g. the load generator) stepped once per
          scheduling slice *)
  mutable slice : int64;  (** scheduling quantum in cycles *)
  mutable slice_end : int;
  mutable icache_on : bool;
      (** when false every task steps through the byte-at-a-time
          fetch/decode path — the A/B switch the equivalence tests and
          benchmarks use; simulated behaviour is identical either way *)
  mutable blocks_on : bool;
      (** when true (and [icache_on]) hot straight-line runs execute
          through the threaded-code block engine ({!Sim_cpu.Icache}
          compiled closures) instead of per-instruction dispatch —
          host-side speed only; simulated cycles, state and audit
          streams are bit-identical either way (the engine-identity
          gate).  Forced off by the [SIM_NO_BLOCKS] environment knob
          and the [--no-blocks] CLI flag for A/B bisection *)
  mutable strace : (task -> int -> int64 -> unit) option;
      (** kernel-side debug trace: task, syscall nr, result *)
  mutable tracer : Sim_trace.Tracer.t option;
      (** machine-wide event tracer; [None] (the default) is the
          zero-cost path — emit sites guard on it and allocate
          nothing.  Emitting never charges cycles: a traced run is
          cycle-for-cycle identical to an untraced one *)
  mutable metrics : Kmetrics.t option;
      (** machine-wide metrics registry; same contract as [tracer]:
          [None] is the zero-cost default and counting never charges
          cycles, so a metered run is cycle- and state-identical to
          an unmetered one *)
  mutable profiler : Sim_metrics.Profiler.t option;
      (** cycle-clock sampling profiler, ticked from {!charge};
          observation-only like [tracer] and [metrics] *)
  mutable in_kernel : int;
      (** depth of simulated-kernel activity (syscall dispatch, signal
          delivery) on the current CPU; the profiler classifies cycles
          charged at depth > 0 as kernel time.  Self-healing: reset to
          0 before every guest instruction step *)
  mutable halted : bool;
  mutable cur_task : task option;  (** task being executed right now *)
  mutable cur_cycles : int;
      (** cycles charged to [cur_task] since it was scheduled; added to
          its [tcycles] when it is descheduled, so a charge does not
          box an [int64] *)
  mutable auditor : Sim_audit.Audit.t option;
      (** divergence auditor recording the observable event stream and
          state-hash checkpoints; observation-only like [tracer] *)
  mutable chaos : Sim_chaos.Chaos.t option;
      (** deterministic chaos engine; unlike the observers above it
          deliberately perturbs the run (injected errnos, signals and
          preemptions), but [None] — the default — is bit-identical
          to a kernel built before the engine existed, and injection
          never charges cycles of its own *)
  mutable obs : Sim_obs.Obs.t option;
      (** request-flow span recorder, fed from {!charge} and the
          scheduler edges; observation-only like [tracer] — a spanned
          run is cycle- and state-identical to an unspanned one *)
  mutable prov : Sim_obs.Provenance.t option;
      (** per-call-site interposition ledger with guest stack
          unwinding, fed at audited syscall dispatches and rewrite
          stamps; observation-only like [tracer] — a provenanced run
          is cycle- and state-identical to a bare one *)
  mutable policy : Sim_policy.Policy.t option;
      (** syscall-flow-integrity engine, consulted at every
          application syscall dispatch.  In report (or learning) mode
          it is observation-only like [tracer]; in deny/kill mode it
          suppresses out-of-policy syscalls and charges
          [cost.policy_check] per dispatch *)
}

(* Classify the cycles being charged into a causal phase for the span
   recorder.  Uses only state the kernel already maintains: kernel
   depth, the staged dispatch nr, the interposer dispatch-path tag
   and the guest rip against the registered interposer code ranges. *)
let obs_phase (k : kernel) o =
  match k.cur_task with
  | None -> Sim_obs.Obs.Psched
  | Some t ->
      if k.in_kernel > 0 then
        Sim_obs.Obs.Pkernel (Sim_obs.Obs.cur_nr o k.cur_cpu)
      else if t.trace_path <> None || Sim_obs.Obs.in_interp o t.ctx.Cpu.rip
      then Sim_obs.Obs.Pinterp
      else Sim_obs.Obs.Papp

let charge (k : kernel) n =
  let c = k.cpus.(k.cur_cpu) in
  let start = c.clk in
  c.clk <- start + n;
  (match k.obs with
  | None -> ()
  | Some o ->
      Sim_obs.Obs.on_charge o ~cpu:k.cur_cpu ~start:(Int64.of_int start)
        ~cycles:n ~phase:(obs_phase k o));
  match k.cur_task with
  | Some t -> (
      k.cur_cycles <- k.cur_cycles + n;
      match k.profiler with
      | None -> ()
      | Some p ->
          Sim_metrics.Profiler.tick p n ~comm:t.comm ~rip:t.ctx.Cpu.rip
            ~in_kernel:(k.in_kernel > 0) ~sig_depth:t.sig_depth)
  | None -> ()

(** Is any observer (tracer, metrics, auditor, span recorder,
    provenance ledger or policy engine) attached?  Dispatch-path
    staging sites guard on this: the tag exists purely for
    attribution (and for the policy engine's call-site recovery), so
    it is only maintained when someone is looking. *)
let observing (k : kernel) =
  k.tracer <> None || k.metrics <> None || k.auditor <> None || k.obs <> None
  || k.prov <> None || k.policy <> None

(** Cycles charged to [t] so far, including the slice it is running. *)
let task_cycles (k : kernel) (t : task) =
  match k.cur_task with
  | Some u when u == t -> Int64.add t.tcycles (Int64.of_int k.cur_cycles)
  | _ -> t.tcycles

let enter_kernel (k : kernel) = k.in_kernel <- k.in_kernel + 1
let leave_kernel (k : kernel) = k.in_kernel <- max 0 (k.in_kernel - 1)

(** The current CPU's clock. *)
let now (k : kernel) = k.cpus.(k.cur_cpu).clk

(** The earliest per-CPU clock (the kernel's notion of global
    progress), as the [int] the scheduler compares against. *)
let min_clock (k : kernel) =
  Array.fold_left (fun acc c -> min acc c.clk) max_int k.cpus

(** The per-CPU clocks as [int64]s, the span recorder's unit. *)
let clocks (k : kernel) = Array.map (fun c -> Int64.of_int c.clk) k.cpus

(** {!min_clock} as an [int64], for observers and harnesses. *)
let global_time (k : kernel) = Int64.of_int (min_clock k)

(** Record [kind] on the current CPU's ring at the current simulated
    time (no-op without a tracer).  Hot emit sites should guard with
    [k.tracer <> None] before building [kind] so the disabled path
    allocates nothing. *)
let trace_emit (k : kernel) kind =
  match k.tracer with
  | None -> ()
  | Some tr ->
      let tid = match k.cur_task with Some t -> t.tid | None -> -1 in
      Sim_trace.Tracer.emit tr ~cpu:k.cur_cpu ~tid ~ts:(Int64.of_int (now k))
        kind

(** Like {!trace_emit} with an explicit timestamp — for spans whose
    start time predates the emit (syscall enter/exit pairs). *)
let trace_emit_at (k : kernel) ~ts kind =
  match k.tracer with
  | None -> ()
  | Some tr ->
      let tid = match k.cur_task with Some t -> t.tid | None -> -1 in
      Sim_trace.Tracer.emit tr ~cpu:k.cur_cpu ~tid ~ts kind

let find_task (k : kernel) tid = Hashtbl.find_opt k.tasks tid

let sig_bit s = Int64.shift_left 1L (s - 1)

let signal_pending_unmasked (t : task) =
  Int64.logand t.pending (Int64.lognot t.sigmask) <> 0L
