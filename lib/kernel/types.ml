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

(** The scheduling quantum in cycles. *)
let quantum = 4000

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
  mutable observers : observer list;
      (** observation-only subscribers, in attach order (DESIGN.md
          §17).  [[]] (the default) is the zero-cost path: every emit
          site guards on it before building an event *)
  mutable tickers : (kernel -> int -> int -> unit) list;
      (** the [on_tick] callbacks of [observers], in attach order:
          {!charge} walks only these *)
  mutable metrics : Kmetrics.t option;
      (** the attached metrics registry, kept as a read handle for
          /proc/metrics; its counting runs through its subscriber *)
  mutable in_kernel : int;
      (** depth of simulated-kernel activity (syscall dispatch, signal
          delivery) on the current CPU; the profiler classifies cycles
          charged at depth > 0 as kernel time.  Self-healing: reset to
          0 before every guest instruction step *)
  mutable cur_nr : int;
      (** syscall nr being dispatched on the current CPU, -1 outside
          any dispatch — staged at syscall entry, restored around
          nested kernel services, self-healed with [in_kernel]; the
          span recorder attributes kernel cycles per nr by it *)
  mutable app_index : int;
      (** 1-based application-stream index of the last recorded
          application syscall, or -1 while no auditor numbers the
          stream (see {!next_app_index}) *)
  mutable halted : bool;
  mutable cur_task : task option;  (** task being executed right now *)
  mutable cur_cycles : int;
      (** cycles charged to [cur_task] since it was scheduled; added to
          its [tcycles] when it is descheduled, so a charge does not
          box an [int64] *)
  mutable chaos : Sim_chaos.Chaos.t option;
      (** deterministic chaos engine; unlike the observers it
          deliberately perturbs the run (injected errnos, signals and
          preemptions), but [None] — the default — is bit-identical
          to a kernel built before the engine existed, and injection
          never charges cycles of its own *)
  mutable policy : Sim_policy.Policy.t option;
      (** syscall-flow-integrity engine, consulted at every
          application syscall dispatch.  In report (or learning) mode
          it is observation-only like an observer; in deny/kill mode
          it suppresses out-of-policy syscalls and charges
          [cost.policy_check] per dispatch *)
}

(** An observation-only subscriber.  Callbacks never charge cycles and
    never touch task, memory or CPU state, so a run with any set of
    observers attached is cycle- and state-identical to a bare one. *)
and observer = {
  on_event : kernel -> event -> unit;
  on_tick : (kernel -> int -> int -> unit) option;
      (** every {!charge}: the CPU clock before it and the cycles
          charged.  Kept out of [event] because it fires per
          instruction and must not allocate *)
  per_insn : bool;
      (** wants one tick per instruction retired inside a compiled
          block instead of one bulk tick per block *)
  probes : kernel -> (string * string * (unit -> int)) list;
      (** (name, help, read) gauges for the metrics registry, sampled
          at scrape time *)
  proc : task -> string;
      (** lines appended to /proc/<pid>/interposer *)
}

(** The kernel-event stream: the tracer's event kinds plus what the
    auditor, the span recorder and the provenance ledger need. *)
and event =
  | Attached
      (** delivered once, to the subscriber being attached, before any
          other event *)
  | Trace of Sim_trace.Event.kind
      (** a tracer event the kernel has nothing to add to, stamped at
          the current CPU's clock *)
  | Syscall_enter of {
      nr : int;
      path : Sim_trace.Event.dispatch_path;
      ts0 : int;
    }
      (** a kernel dispatch began at [ts0] *)
  | Syscall of syscall  (** the dispatch finished *)
  | Syscall_result of syscall
      (** an application syscall completed without a dispatch of its
          own: the EINTR abandonment of a blocked wait, or an
          interposer's emulated call *)
  | Signal_deliver of { task : task; signo : int; handler : int; mech : bool }
      (** a handler frame was pushed; [mech]: the SIGSYS of SUD or a
          seccomp TRAP filter, i.e. interposition plumbing *)
  | Sigreturn of task
  | Rewrite of { site : int; how : Sim_obs.Provenance.rewrite_kind }
      (** a [syscall] site became [call rax] *)
  | On_cpu  (** the current task was scheduled on the current CPU *)
  | Off_cpu
      (** the current task leaves the CPU; its state tells blocked from
          preempted *)
  | Execve of task  (** [task] now runs a fresh address space *)
  | Symbols of (string * int) list
      (** a loaded program's symbol table, announced by whoever loaded
          it (the kernel does not keep symbols) *)
  | Req_issue of { rid : int; conn : int; ts : int64 }
      (** the load generator put request [rid] on the server-side
          connection [conn] at global time [ts] *)
  | Req_claim of { task : task; conn : int }
      (** [task] read fresh bytes off [conn]: it now serves the
          request issued there *)
  | Req_complete of { rid : int; ts : int64 }
  | Req_abandon of int  (** the request's connection died *)

(** One syscall as observers see it. *)
and syscall = {
  task : task;
  nr : int;
  path : Sim_trace.Event.dispatch_path;
  args : string;  (** the six argument registers as dispatched, packed *)
  ts0 : int;  (** cycle the dispatch began *)
  serviced : int;
      (** cycle the kernel service returned, before any ptrace exit
          stop: the end of the latency sample *)
  ret : int64;
      (** the result, or {!no_result} when the call transferred
          control (execve, rt_sigreturn) *)
  blocked : bool;  (** the task blocked; the syscall will retry *)
  scope : scope;
}

(** Where a finished syscall lands in the audit stream. *)
and scope =
  | App  (** the application observed the result *)
  | Mech  (** interposer-internal ({!Kernel.kernel_syscall}) *)
  | Unrecorded  (** it blocked, or is rt_sigreturn signal plumbing *)

(** Marker result: do not write rax / rcx / r11 back. *)
let no_result = Int64.min_int

let rec deliver k ev = function
  | [] -> ()
  | o :: rest ->
      o.on_event k ev;
      deliver k ev rest

(** Deliver [ev] to every observer.  Sites guard with
    [k.observers <> []] before building [ev], so the bare path
    allocates nothing. *)
let emit (k : kernel) ev = deliver k ev k.observers

(** Deliver a finished syscall ({!Syscall} or {!Syscall_result}),
    guarded like {!emit}; an application-scope one first takes the
    next app-stream index. *)
let finish k ev =
  (match ev with
  | (Syscall { scope = App; _ } | Syscall_result _) when k.app_index >= 0 ->
      k.app_index <- k.app_index + 1
  | _ -> ());
  emit k ev

let rec tick k start n = function
  | [] -> ()
  | f :: rest ->
      f k start n;
      tick k start n rest

let charge (k : kernel) n =
  let c = k.cpus.(k.cur_cpu) in
  let start = c.clk in
  c.clk <- start + n;
  (match k.cur_task with
  | Some _ -> k.cur_cycles <- k.cur_cycles + n
  | None -> ());
  if k.tickers <> [] then tick k start n k.tickers

(** Is any observer or the policy engine attached?  Dispatch-path
    staging sites guard on this: the tag exists purely for
    attribution (and for the policy engine's call-site recovery), so
    it is only maintained when someone is looking. *)
let observing (k : kernel) = k.observers <> [] || k.policy <> None

(** The application-stream index the next recorded application
    syscall will get, or -1 while the stream is not numbered. *)
let next_app_index (k : kernel) =
  if k.app_index < 0 then -1 else k.app_index + 1

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

let find_task (k : kernel) tid = Hashtbl.find_opt k.tasks tid

let sig_bit s = Int64.shift_left 1L (s - 1)

let signal_pending_unmasked (t : task) =
  Int64.logand t.pending (Int64.lognot t.sigmask) <> 0L
