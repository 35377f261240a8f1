(** The simulated kernel: scheduling, syscall dispatch, Syscall User
    Dispatch, seccomp, ptrace stops, processes and threads.

    The machine has [ncpus] CPUs advancing in lock-step scheduling
    slices.  Within a slice each CPU runs its current task until the
    task blocks, exits, or the slice ends; cross-task wakeups
    (sockets, pipes, child exits) are observed at task-pick time.
    External actors (the benchmark load generator) are stepped once
    per slice.

    Syscall entry order matches Linux: Syscall User Dispatch first,
    then ptrace syscall-stops, then seccomp. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Types
module Ev = Sim_trace.Event
module Policy = Sim_policy.Policy

(** {1 Construction} *)

(* The [SIM_NO_BLOCKS] environment knob forces single-stepping
   process-wide — the test harness and chaos reproducers use it to
   rule the block engine in or out without touching call sites. *)
let blocks_default () =
  match Sys.getenv_opt "SIM_NO_BLOCKS" with
  | Some ("1" | "true" | "yes" | "on") -> false
  | _ -> true

let create ?(ncpus = 1) ?(cost = Sim_costs.Cost_model.default)
    ?(slice = 4000L) ?(icache = true) ?blocks () : kernel =
  let blocks =
    match blocks with Some b -> b | None -> blocks_default ()
  in
  let k =
    {
      cost;
      cpus = Array.init ncpus (fun _ -> { clk = 0; last_tid = -1 });
      cur_cpu = 0;
      tasks = Hashtbl.create 16;
      next_tid = 1;
      vfs = Vfs.create ();
      net = Net.create ();
      hypercalls = Hashtbl.create 16;
      next_hyper = 1;
      rng = Random.State.make [| 0x1a2b; 0x90c1 |];
      programs = Hashtbl.create 4;
      actors = [];
      slice;
      slice_end = Int64.to_int slice;
      strace = None;
      tracer = None;
      metrics = None;
      profiler = None;
      in_kernel = 0;
      halted = false;
      cur_task = None;
      cur_cycles = 0;
      icache_on = icache;
      blocks_on = blocks;
      auditor = None;
      chaos = None;
      obs = None;
      prov = None;
      policy = None;
    }
  in
  (* /proc exists on every kernel (guests may read it whether or not
     a metrics registry is attached). *)
  Procfs.mount k;
  k

(** Attach a metrics registry to [k] and register the kernel-derived
    probes: the process-wide decoded-icache counters (promoted into
    the registry without touching their hot-path [int ref]s) and the
    scheduler's runqueue depth.  Probes are sampled at scrape time
    only. *)
let attach_metrics (k : kernel) (m : Kmetrics.t) =
  k.metrics <- Some m;
  let open Sim_metrics in
  let r = m.Kmetrics.registry in
  Metrics.probe r ~help:"decoded-icache hits (process-wide)"
    "sim_icache_hits_total" (fun () -> !Icache.g_hits);
  Metrics.probe r ~help:"decoded-icache misses (process-wide)"
    "sim_icache_misses_total" (fun () -> !Icache.g_misses);
  Metrics.probe r ~help:"decoded-icache page invalidations (process-wide)"
    "sim_icache_invalidations_total" (fun () -> !Icache.g_invalidations);
  Metrics.probe r ~help:"decoded-icache uncached-path fallbacks (process-wide)"
    "sim_icache_fallbacks_total" (fun () -> !Icache.g_fallbacks);
  Metrics.probe r ~help:"threaded-code blocks compiled (process-wide)"
    "sim_blocks_compiled_total" (fun () -> !Icache.g_blocks_compiled);
  Metrics.probe r ~help:"threaded-code block entries (process-wide)"
    "sim_block_hits_total" (fun () -> !Icache.g_block_hits);
  Metrics.probe r
    ~help:"threaded-code blocks killed by page invalidation (process-wide)"
    "sim_block_kills_total" (fun () -> !Icache.g_block_kills);
  Metrics.probe r
    ~help:"instructions retired inside compiled blocks (process-wide)"
    "sim_block_insns_total" (fun () -> !Icache.g_block_insns);
  Metrics.probe r
    ~help:"block-engine fallbacks: offset below the heat threshold"
    "sim_block_fallback_cold_total" (fun () -> !Icache.g_block_fb_cold);
  Metrics.probe r
    ~help:"block-engine fallbacks: offset cannot head a block"
    "sim_block_fallback_uncompilable_total" (fun () ->
      !Icache.g_block_fb_uncompilable);
  Metrics.probe r
    ~help:"block-engine fallbacks: register-access hook installed"
    "sim_block_fallback_hooked_total" (fun () -> !Icache.g_block_fb_hooked);
  Metrics.probe r ~help:"block exits: ran to the last op"
    "sim_block_exit_end_total" (fun () -> !Icache.g_bexit_end);
  Metrics.probe r ~help:"block exits: slice budget exhausted"
    "sim_block_exit_budget_total" (fun () -> !Icache.g_bexit_budget);
  Metrics.probe r ~help:"block exits: store invalidated the executing block"
    "sim_block_exit_smc_total" (fun () -> !Icache.g_bexit_smc);
  Metrics.probe r ~help:"block exits: op faulted"
    "sim_block_exit_fault_total" (fun () -> !Icache.g_bexit_fault);
  Metrics.probe r ~help:"block exits: chaos preemption fired mid-block"
    "sim_block_exit_preempt_total" (fun () -> !Icache.g_bexit_preempt);
  Metrics.probe r ~help:"tasks in runnable state" "sim_sched_runnable"
    (fun () ->
      Hashtbl.fold
        (fun _ t acc -> if t.state = Runnable then acc + 1 else acc)
        k.tasks 0);
  Metrics.probe r ~help:"tasks alive (any state)" "sim_tasks" (fun () ->
      Hashtbl.length k.tasks);
  Metrics.probe r ~help:"earliest per-CPU simulated clock" "sim_cycles"
    (fun () -> min_clock k);
  (* Observation-integrity probes: if any of these is nonzero the
     span/trace attribution is incomplete and the gated macrobench
     must fail.  Scrape-time thunks close over [k], so they read
     whatever tracer/span recorder is attached at scrape time. *)
  for cpu = 0 to Array.length k.cpus - 1 do
    Metrics.probe r
      ~help:"trace-ring events dropped on this CPU (ring overflow)"
      (Printf.sprintf "sim_trace_ring_dropped_cpu%d" cpu)
      (fun () ->
        match k.tracer with
        | Some tr -> Sim_trace.Tracer.dropped_on tr cpu
        | None -> 0)
  done;
  Metrics.probe r ~help:"trace-ring events dropped (all CPUs)"
    "sim_trace_ring_dropped_total" (fun () ->
      match k.tracer with Some tr -> Sim_trace.Tracer.dropped tr | None -> 0);
  Metrics.probe r
    ~help:"requests dropped at issue: span in-flight table full"
    "sim_obs_inflight_overflow_total" (fun () ->
      match k.obs with Some o -> Sim_obs.Obs.overflow o | None -> 0);
  Metrics.probe r
    ~help:"exemplars evicted from the slow-request reservoir (informational)"
    "sim_obs_reservoir_evictions_total" (fun () ->
      match k.obs with Some o -> Sim_obs.Obs.evictions o | None -> 0);
  Metrics.probe r ~help:"requests issued (span recorder)"
    "sim_obs_requests_issued_total" (fun () ->
      match k.obs with Some o -> Sim_obs.Obs.issued o | None -> 0);
  Metrics.probe r ~help:"requests completed (span recorder)"
    "sim_obs_requests_completed_total" (fun () ->
      match k.obs with Some o -> Sim_obs.Obs.completed_count o | None -> 0);
  (* Provenance-integrity probes: unwinder health and ledger bounds.
     A resolved count far below attempts, or a nonzero dropped count,
     means per-site attribution is incomplete — the bench sweep gates
     on the success rate. *)
  Metrics.probe r ~help:"guest backtrace attempts (provenance ledger)"
    "sim_site_unwind_attempts_total" (fun () ->
      match k.prov with
      | Some p -> Sim_obs.Provenance.unwind_attempts p
      | None -> 0);
  Metrics.probe r
    ~help:"guest backtraces that recovered at least one frame"
    "sim_site_unwind_resolved_total" (fun () ->
      match k.prov with
      | Some p -> Sim_obs.Provenance.unwind_resolved p
      | None -> 0);
  Metrics.probe r ~help:"distinct (site, nr) ledger entries"
    "sim_site_distinct" (fun () ->
      match k.prov with
      | Some p -> Sim_obs.Provenance.distinct_sites p
      | None -> 0);
  Metrics.probe r ~help:"distinct rewritten sites stamped on the ledger"
    "sim_site_rewrites" (fun () ->
      match k.prov with
      | Some p -> Sim_obs.Provenance.rewrite_count p
      | None -> 0);
  Metrics.probe r
    ~help:"dispatches dropped by the ledger's site-table cap"
    "sim_site_dropped_total" (fun () ->
      match k.prov with
      | Some p -> Sim_obs.Provenance.sites_dropped p
      | None -> 0);
  (* Syscall-flow-integrity probes. *)
  Metrics.probe r ~help:"policy-engine dispatch checks"
    "sim_policy_checks_total" (fun () ->
      match k.policy with Some p -> p.Policy.checks | None -> 0);
  Metrics.probe r ~help:"policy violations (all kinds)"
    "sim_policy_violations_total" (fun () ->
      match k.policy with
      | Some p -> Policy.violation_count p
      | None -> 0);
  List.iter
    (fun (kind, leaf) ->
      Metrics.probe r
        ~help:(Printf.sprintf "policy violations: %s check failed" leaf)
        (Printf.sprintf "sim_policy_violations_%s_total" leaf)
        (fun () ->
          match k.policy with
          | Some p -> Policy.kind_count p kind
          | None -> 0))
    [
      (Policy.Vnode, "node");
      (Policy.Vedge, "edge");
      (Policy.Vsite, "site");
      (Policy.Vcompartment, "compartment");
    ];
  Metrics.probe r ~help:"syscalls failed with -EPERM by the policy engine"
    "sim_policy_denied_total" (fun () ->
      match k.policy with Some p -> p.Policy.denied | None -> 0);
  Metrics.probe r ~help:"tasks killed by the policy engine"
    "sim_policy_killed_total" (fun () ->
      match k.policy with Some p -> p.Policy.killed | None -> 0)

let enable_metrics (k : kernel) : Kmetrics.t =
  let m = match k.metrics with Some m -> m | None -> Kmetrics.create () in
  attach_metrics k m;
  m

(** Attach a divergence auditor.  Observation-only: recording never
    charges cycles, so an audited run is cycle- and state-identical to
    an unaudited one (asserted by a qcheck property in test_audit). *)
let attach_audit (k : kernel) (a : Sim_audit.Audit.t) = k.auditor <- Some a

(** Attach a chaos engine.  Unlike the observers it perturbs the run
    on purpose; but its decision sites never charge cycles, so an
    attached engine whose every decision declines (zero rates, or an
    empty forced set) leaves the run bit-identical to a chaos-free
    one (asserted by a qcheck property in test_chaos). *)
let attach_chaos (k : kernel) (ch : Sim_chaos.Chaos.t) = k.chaos <- Some ch

(** Attach a request-flow span recorder.  Observation-only like the
    tracer: the hooks in {!Types.charge}, the scheduler and the
    socket read path never charge cycles or touch task state, so a
    spanned run is bit-identical to an unspanned one (the qcheck
    gate in test_obs).  Baselines the per-CPU clocks so machine
    totals measure from attach time. *)
let attach_obs (k : kernel) (o : Sim_obs.Obs.t) =
  k.obs <- Some o;
  Sim_obs.Obs.set_baseline o (clocks k)

(** Attach a provenance ledger.  Observation-only like the tracer:
    recording a dispatch walks guest frames with faulting-safe reads
    and never charges cycles or touches task state, so a provenanced
    run is bit-identical to a bare one (the qcheck gate in
    test_obs). *)
let attach_prov (k : kernel) (p : Sim_obs.Provenance.t) = k.prov <- Some p

(** Attach a syscall-flow-integrity policy engine.  In report (or
    learning) mode it is observation-only like the tracer — checking
    never charges cycles or touches task state, so a report-mode run
    is bit-identical to a bare one (the qcheck gate in test_policy).
    In deny/kill mode it is deliberately intrusive: out-of-policy
    dispatches are suppressed and every checked dispatch charges
    [cost.policy_check]. *)
let attach_policy (k : kernel) (p : Sim_policy.Policy.t) = k.policy <- Some p

(** Combined final-state hash over every live task, in tid order —
    the [F] line of a serialized audit log.  Uses the auditor's
    incremental per-page hash cache. *)
let audit_final_hash (k : kernel) (a : Sim_audit.Audit.t) =
  let module A = Sim_audit.Audit in
  Hashtbl.fold (fun tid _ acc -> tid :: acc) k.tasks []
  |> List.sort compare
  |> List.fold_left
       (fun h tid ->
         let t = Hashtbl.find k.tasks tid in
         A.mix h (A.full_state_hash a ~tid:t.tid t.ctx t.mem))
       A.seed

(** {1 Hypercalls} *)

(** Register an OCaml handler; returns the index to embed in a
    [Hypercall] instruction. *)
let register_hypercall (k : kernel) (f : kernel -> task -> unit) : int =
  let n = k.next_hyper in
  k.next_hyper <- n + 1;
  Hashtbl.replace k.hypercalls n f;
  n

(** {1 File descriptor tables} *)

let fdtab_create () = { next_fd = 3; fds = Hashtbl.create 8 }

let alloc_fd (t : task) kind ~flags =
  let fd = t.fdt.next_fd in
  t.fdt.next_fd <- fd + 1;
  Hashtbl.replace t.fdt.fds fd { kind; fflags = flags; refs = 1 };
  fd

let get_fd (t : task) fd = Hashtbl.find_opt t.fdt.fds fd

let release_entry (k : kernel) (e : fd_entry) =
  e.refs <- e.refs - 1;
  if e.refs <= 0 then
    match e.kind with
    | Kstream ep -> Net.close_endpoint ep
    | Klisten l -> Net.close_listener k.net l
    | Kreg _ | Kepoll _ | Kunbound _ -> ()

let close_fd (k : kernel) (t : task) fd =
  match get_fd t fd with
  | None -> Error Defs.ebadf
  | Some e ->
      Hashtbl.remove t.fdt.fds fd;
      release_entry k e;
      Ok ()

(** {1 Readiness} *)

let fd_readable (t : task) fd =
  match get_fd t fd with
  | None -> true (* wake so the retry can return EBADF *)
  | Some e -> (
      match e.kind with
      | Kstream ep -> Net.readable ep
      | Klisten l -> not (Queue.is_empty l.backlog)
      | Kreg _ -> true
      | Kepoll _ | Kunbound _ -> true)

let fd_writable (t : task) fd =
  match get_fd t fd with
  | None -> true
  | Some e -> (
      match e.kind with
      | Kstream ep -> Net.writable ep || ep.peer = None
      | Kreg _ -> true
      | Klisten _ | Kepoll _ | Kunbound _ -> true)

let epoll_ready_list (t : task) (ep : epoll) =
  Hashtbl.fold
    (fun fd (mask, data) acc ->
      let ev = ref 0 in
      if mask land Defs.epollin <> 0 && fd_readable t fd then
        ev := !ev lor Defs.epollin;
      if mask land Defs.epollout <> 0 && fd_writable t fd then
        ev := !ev lor Defs.epollout;
      (match get_fd t fd with
      | Some { kind = Kstream s; _ } when s.peer = None && s.peer_closed ->
          ev := !ev lor Defs.epollhup
      | _ -> ());
      if !ev <> 0 then (fd, !ev, data) :: acc else acc)
    ep.interest []

(** {1 Task lifecycle} *)

let fresh_tid (k : kernel) =
  let t = k.next_tid in
  k.next_tid <- t + 1;
  t

let make_task (k : kernel) ~mem ~comm ~affinity : task =
  let tid = fresh_tid k in
  let t =
    {
      tid;
      tgid = tid;
      parent_tid = 0;
      ctx = Cpu.create ();
      mem;
      icache = Icache.create ();
      fdt = fdtab_create ();
      sighand = Array.make (Defs.nsig + 1) sigaction_default;
      sigmask = 0L;
      pending = 0L;
      pending_info = [];
      state = Runnable;
      sud = { sud_on = false; sud_selector = 0; sud_lo = 0; sud_len = 0 };
      filters = [];
      monitor = None;
      pview = None;
      exit_code = 0;
      children = [];
      affinity;
      on_cpu = -1;
      last_run = 0;
      cwd = "/";
      comm;
      brk = 0x3000_0000;
      tid_address = 0L;
      robust_list = 0L;
      tcycles = 0L;
      trace_path = None;
      sig_depth = 0;
      sleep_until = None;
      retrying = false;
    }
  in
  (* [rdtsc] reads the clock of whichever CPU runs the task; clones
     inherit this closure with the rest of the context. *)
  t.ctx.now <- (fun () -> Int64.of_int (now k));
  Hashtbl.replace k.tasks tid t;
  t

(** Map an image's segments into [mem] and return the entry point. *)
let load_image (mem : Mem.t) (img : image) =
  List.iter
    (fun (addr, bytes, perm) ->
      let len = max 1 (String.length bytes) in
      Mem.map mem ~addr ~len ~perm;
      Mem.poke_bytes mem addr bytes)
    img.img_segments;
  Mem.map mem
    ~addr:(img.img_stack_top - img.img_stack_size)
    ~len:img.img_stack_size ~perm:Mem.rw

(** Create a process from [img]. *)
let spawn (k : kernel) ?(comm = "a.out") ?(affinity = -1) (img : image) : task
    =
  let mem = Mem.create () in
  load_image mem img;
  let t = make_task k ~mem ~comm ~affinity in
  t.ctx.rip <- img.img_entry;
  Cpu.poke_reg_int t.ctx Isa.rsp img.img_stack_top;
  t

let do_exit (k : kernel) (t : task) ~code ~group =
  if group then Ksignal.kill_task_group k t ~code
  else begin
    t.exit_code <- code;
    t.state <- Zombie;
    t.on_cpu <- -1
  end;
  (match find_task k t.parent_tid with
  | Some p -> Ksignal.post k p Defs.sigchld
  | None -> ())

(** {1 Reading and writing user memory from syscalls}

    Syscalls accessing bad user pointers return EFAULT. *)

exception Efault

let user_read (t : task) addr len =
  try Mem.read_bytes t.mem addr len with Mem.Fault _ -> raise Efault

let user_write (t : task) addr s =
  try Mem.write_bytes t.mem addr s with Mem.Fault _ -> raise Efault

let user_read_u64 (t : task) addr =
  try Mem.read_u64 t.mem addr with Mem.Fault _ -> raise Efault

let user_write_u64 (t : task) addr v =
  try Mem.write_u64 t.mem addr v with Mem.Fault _ -> raise Efault

let user_string (t : task) addr =
  try Mem.read_cstring t.mem addr with Mem.Fault _ -> raise Efault

(** {1 Syscall implementations} *)

type sysres = Ret of int64 | Block of block_reason

let ok v = Ret (Int64.of_int v)
let err e = Ret (Int64.of_int (-e))

let i64 = Int64.of_int
let to_i = Int64.to_int

let prot_to_perm prot =
  let p = ref 0 in
  if prot land Defs.prot_read <> 0 then p := !p lor Mem.p_r;
  if prot land Defs.prot_write <> 0 then p := !p lor Mem.p_w;
  if prot land Defs.prot_exec <> 0 then p := !p lor Mem.p_x;
  !p

let nonblocking (e : fd_entry) = e.fflags land Defs.o_nonblock <> 0

let write_stat (t : task) addr (inode : Vfs.inode) =
  user_write_u64 t addr (i64 inode.Vfs.mode);
  user_write_u64 t (addr + 8) (i64 (Vfs.size_of inode));
  user_write_u64 t (addr + 16) inode.Vfs.mtime;
  user_write_u64 t (addr + 24) (i64 inode.Vfs.ino)

(* Console output: writes to fd 1/2 without an entry land here. *)
let console = Buffer.create 256
let console_hook : (string -> unit) option ref = ref None

let console_write s =
  Buffer.add_string console s;
  match !console_hook with Some f -> f s | None -> ()

let do_fork (k : kernel) (t : task) ~vm ~files ~sighand ~stack ~tls ~thread =
  let mem = if vm then t.mem else Mem.clone t.mem in
  let child_tid = fresh_tid k in
  let child =
    {
      tid = child_tid;
      tgid = (if thread then t.tgid else child_tid);
      parent_tid = t.tid;
      ctx = Cpu.copy t.ctx;
      mem;
      (* Threads share the address space and therefore its decoded
         code; a forked copy diverges and must validate its own. *)
      icache = (if vm then t.icache else Icache.create ());
      fdt = t.fdt;
      sighand = (if sighand then t.sighand else Array.copy t.sighand);
      sigmask = t.sigmask;
      pending = 0L;
      pending_info = [];
      state = Runnable;
      (* SUD is deactivated on fork, clone and execve (the paper's
         Section IV-B-a), so the interposer must re-enable it. *)
      sud = { sud_on = false; sud_selector = 0; sud_lo = 0; sud_len = 0 };
      filters = t.filters (* seccomp filters are inherited *);
      monitor = t.monitor;
      pview = None;
      exit_code = 0;
      children = [];
      affinity = t.affinity;
      on_cpu = -1;
      last_run = 0;
      cwd = t.cwd;
      comm = t.comm;
      brk = t.brk;
      tid_address = 0L;
      robust_list = 0L;
      tcycles = 0L;
      trace_path = None;
      (* The child starts outside any signal frame: the parent's
         in-handler state does not transfer (its frames live on the
         parent's stack). *)
      sig_depth = 0;
      sleep_until = None;
      retrying = false;
    }
  in
  if files then child.fdt <- t.fdt
  else begin
    (* Copy the table; entries (open file descriptions) are shared. *)
    let fdt = { next_fd = t.fdt.next_fd; fds = Hashtbl.create 8 } in
    Hashtbl.iter
      (fun fd e ->
        e.refs <- e.refs + 1;
        Hashtbl.replace fdt.fds fd e)
      t.fdt.fds;
    child.fdt <- fdt
  end;
  if stack <> 0 then Cpu.poke_reg_int child.ctx Isa.rsp stack;
  if tls <> 0 then child.ctx.gs_base <- tls;
  Cpu.poke_reg child.ctx Isa.rax 0L;
  t.children <- child_tid :: t.children;
  Hashtbl.replace k.tasks child_tid child;
  if k.tracer <> None then trace_emit k (Ev.Task_spawn { child_tid });
  child

let find_zombie_child (k : kernel) (t : task) ~pid =
  let candidates =
    List.filter_map
      (fun tid ->
        match find_task k tid with
        | Some c when c.state = Zombie && (pid = -1 || pid = tid) -> Some c
        | _ -> None)
      t.children
  in
  match candidates with [] -> None | c :: _ -> Some c

let do_execve (k : kernel) (t : task) path =
  match Hashtbl.find_opt k.programs path with
  | None -> err Defs.enoent
  | Some img ->
      let mem = Mem.create () in
      load_image mem img;
      t.mem <- mem;
      (* Entirely new image: drop every decode along with the old
         address space.  Clear (rather than replace) the instance —
         the run loop holds a reference for the rest of the slice, and
         a fresh [Mem.t] restarts its generation counter, so stale
         entries could otherwise alias the new image's pages. *)
      Icache.clear t.icache;
      (* Same aliasing hazard for the auditor's per-page hash cache:
         the fresh address space restarts the generation counter. *)
      (match k.auditor with
      | Some a -> Sim_audit.Audit.forget_task a t.tid
      | None -> ());
      t.ctx.rip <- img.img_entry;
      for r = 0 to 15 do
        Cpu.poke_reg t.ctx r 0L
      done;
      Cpu.poke_reg_int t.ctx Isa.rsp img.img_stack_top;
      t.ctx.fs_base <- 0;
      t.ctx.gs_base <- 0;
      t.sighand <- Array.make (Defs.nsig + 1) sigaction_default;
      (* SUD does not survive execve; seccomp filters do. *)
      t.sud.sud_on <- false;
      t.comm <- path;
      (* execve "returns" at the new entry point: the syscall result
         write must not clobber the fresh context, so we signal that
         with a special marker the dispatcher understands. *)
      Ret Int64.min_int

(* Marker meaning "do not write rax / rcx / r11 back". *)
let no_result = Int64.min_int

let sockaddr_port (t : task) addr = to_i (user_read_u64 t addr)

(* Charge the copy of [n] bytes between kernel and user memory. *)
let charge_copy (k : kernel) n =
  charge k (Sim_costs.Cost_model.copy_cost k.cost n)

(* A guest timespec as cycles at 2.1 GHz. *)
let timespec_cycles sec nsec =
  Int64.add (Int64.mul sec 2_100_000_000L) (Int64.div (Int64.mul nsec 21L) 10L)

let do_syscall (k : kernel) (t : task) (nr : int) : sysres =
  let c = t.ctx in
  let a1 = Cpu.peek_reg_int c Isa.rdi
  and a2 = Cpu.peek_reg_int c Isa.rsi
  and a3 = Cpu.peek_reg_int c Isa.rdx
  and a4 = Cpu.peek_reg_int c Isa.r10
  and a5 = Cpu.peek_reg_int c Isa.r8 in
  let cost = k.cost in
  match nr with
  | n when n = Defs.sys_getpid -> ok t.tgid
  | n when n = Defs.sys_gettid -> ok t.tid
  | n when n = Defs.sys_getuid -> ok 1000
  | n when n = Defs.sys_uname || n = Defs.sys_ioctl -> ok 0
  | n when n = Defs.sys_sched_yield ->
      t.last_run <- now k;
      ok 0
  | n when n = Defs.sys_set_tid_address ->
      t.tid_address <- Cpu.peek_reg c Isa.rdi;
      ok t.tid
  | n when n = Defs.sys_set_robust_list ->
      t.robust_list <- Cpu.peek_reg c Isa.rdi;
      ok 0
  | n when n = Defs.sys_getrandom ->
      let len = a2 in
      let b = Bytes.init len (fun _ -> Char.chr (Random.State.int k.rng 256)) in
      user_write t a1 (Bytes.to_string b);
      charge_copy k len;
      ok len
  | n when n = Defs.sys_clock_gettime || n = Defs.sys_gettimeofday ->
      (* 2.1 GHz: ns = cycles * 10 / 21 *)
      let ns = now k * 10 / 21 in
      let ptr = if n = Defs.sys_clock_gettime then a2 else a1 in
      user_write_u64 t ptr (i64 (ns / 1_000_000_000));
      user_write_u64 t (ptr + 8) (i64 (ns mod 1_000_000_000));
      ok 0
  | n when n = Defs.sys_nanosleep -> (
      (* Blocking syscalls are retried by re-executing the syscall
         instruction, so remember the absolute deadline. *)
      match t.sleep_until with
      | Some deadline when now k >= deadline ->
          t.sleep_until <- None;
          ok 0
      | Some deadline -> Block (Wsleep deadline)
      | None ->
          let sec = user_read_u64 t a1 and nsec = user_read_u64 t (a1 + 8) in
          let deadline = now k + Int64.to_int (timespec_cycles sec nsec) in
          t.sleep_until <- Some deadline;
          Block (Wsleep deadline))
  | n when n = Defs.sys_brk ->
      let want = a1 in
      if want = 0 then ok t.brk
      else begin
        if want > t.brk then
          Mem.map t.mem ~addr:t.brk ~len:(want - t.brk) ~perm:Mem.rw;
        t.brk <- want;
        ok want
      end
  | n when n = Defs.sys_mmap ->
      let addr = a1 and len = a2 and prot = a3 and flags = a4 and fd = a5 in
      if len <= 0 then err Defs.einval
      else begin
        let perm = prot_to_perm prot in
        let target =
          if addr <> 0 && flags land Defs.map_fixed <> 0 then addr
          else if addr <> 0 then addr
          else Mem.find_free t.mem ~hint:0x2000_0000 ~len
        in
        charge k (cost.page_op * Mem.pages_in_range ~addr:target ~len);
        Mem.map t.mem ~addr:target ~len ~perm;
        (if flags land Defs.map_anonymous = 0 && fd >= 0 then
           match get_fd t fd with
           | Some { kind = Kreg of_; _ } -> (
               match Vfs.pread of_ ~pos:(Cpu.peek_reg_int c Isa.r9) len with
               | Ok data -> Mem.poke_bytes t.mem target data
               | Error _ -> ())
           | _ -> ());
        ok target
      end
  | n when n = Defs.sys_munmap ->
      Mem.unmap t.mem ~addr:a1 ~len:a2;
      charge k (cost.page_op * Mem.pages_in_range ~addr:a1 ~len:a2);
      ok 0
  | n when n = Defs.sys_mprotect ->
      let addr = a1 and len = a2 in
      if addr land (Mem.page_size - 1) <> 0 then err Defs.einval
      else begin
        charge k (cost.page_op * Mem.pages_in_range ~addr ~len);
        match Mem.protect t.mem ~addr ~len ~perm:(prot_to_perm a3) with
        | Ok () -> ok 0
        | Error `Unmapped -> err Defs.enomem
      end
  | n when n = Defs.sys_pkey_mprotect ->
      let addr = a1 and len = a2 and pkey = a4 in
      if addr land (Mem.page_size - 1) <> 0 || pkey < 0 || pkey > 15 then
        err Defs.einval
      else begin
        charge k (cost.page_op * Mem.pages_in_range ~addr ~len);
        match
          ( Mem.protect t.mem ~addr ~len ~perm:(prot_to_perm a3),
            Mem.set_pkey t.mem ~addr ~len ~pkey )
        with
        | Ok (), Ok () -> ok 0
        | _ -> err Defs.enomem
      end
  | n when n = Defs.sys_open || n = Defs.sys_openat ->
      let path_ptr, flags, mode =
        if n = Defs.sys_open then (a1, a2, a3) else (a2, a3, a4)
      in
      let path = user_string t path_ptr in
      charge k cost.fs_op;
      (match Vfs.openf k.vfs ~cwd:t.cwd path ~flags ~mode with
      | Ok of_ -> ok (alloc_fd t (Kreg of_) ~flags)
      | Error e -> err e)
  | n when n = Defs.sys_close -> (
      match close_fd k t a1 with Ok () -> ok 0 | Error e -> err e)
  | n when n = Defs.sys_read -> (
      let fd = a1 and buf = a2 and len = a3 in
      match get_fd t fd with
      | None -> if fd = 0 then ok 0 else err Defs.ebadf
      | Some e -> (
          match e.kind with
          | Kreg of_ -> (
              charge k cost.fs_op;
              match Vfs.read of_ len with
              | Ok s ->
                  user_write t buf s;
                  charge_copy k (String.length s);
                  ok (String.length s)
              | Error er -> err er)
          | Kstream ep -> (
              charge k cost.sock_op;
              match Net.recv ep len with
              | `Data s ->
                  (* Request claim: this task just read fresh bytes off
                     the connection, so the request the load generator
                     stamped on it (if any) is now being served here.
                     [ev] is the app-stream audit index this very read
                     will be logged at. *)
                  (match k.obs with
                  | Some o ->
                      let ev =
                        match k.auditor with
                        | Some a -> Sim_audit.Audit.app_count a + 1
                        | None -> -1
                      in
                      Sim_obs.Obs.claim o ~cpu:k.cur_cpu ~conn:ep.id
                        ~tid:t.tid ~ts:(Int64.of_int (now k)) ~ev
                  | None -> ());
                  user_write t buf s;
                  charge_copy k (String.length s);
                  ok (String.length s)
              | `Eof -> ok 0
              | `Empty ->
                  if nonblocking e then err Defs.eagain else Block (Wread fd))
          | Klisten _ | Kepoll _ | Kunbound _ -> err Defs.einval))
  | n when n = Defs.sys_write -> (
      let fd = a1 and buf = a2 and len = a3 in
      match get_fd t fd with
      | None ->
          if fd = 1 || fd = 2 then begin
            let s = user_read t buf len in
            console_write s;
            charge_copy k len;
            ok len
          end
          else err Defs.ebadf
      | Some e -> (
          match e.kind with
          | Kreg of_ -> (
              charge k cost.fs_op;
              let s = user_read t buf len in
              charge_copy k len;
              match Vfs.write of_ s with Ok n -> ok n | Error er -> err er)
          | Kstream ep -> (
              charge k cost.sock_op;
              let space = Net.send_space ep in
              if space = 0 then
                match ep.peer with
                | None ->
                    Ksignal.post k t Defs.sigpipe;
                    err Defs.epipe
                | Some _ ->
                    if nonblocking e then err Defs.eagain
                    else Block (Wwrite fd)
              else
                let chunk = min len space in
                let s = user_read t buf chunk in
                charge_copy k chunk;
                match Net.send ep s 0 chunk with
                | Ok sent -> ok sent
                | Error `Pipe ->
                    Ksignal.post k t Defs.sigpipe;
                    err Defs.epipe)
          | Klisten _ | Kepoll _ | Kunbound _ -> err Defs.einval))
  | n when n = Defs.sys_lseek -> (
      match get_fd t a1 with
      | Some { kind = Kreg of_; _ } -> (
          match Vfs.lseek of_ ~off:a2 ~whence:a3 with
          | Ok pos -> ok pos
          | Error e -> err e)
      | Some _ -> err Defs.espipe
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_stat ->
      charge k cost.fs_op;
      let path = user_string t a1 in
      (match Vfs.lookup k.vfs ~cwd:t.cwd path with
      | Ok inode ->
          write_stat t a2 inode;
          ok 0
      | Error e -> err e)
  | n when n = Defs.sys_fstat -> (
      match get_fd t a1 with
      | Some { kind = Kreg of_; _ } ->
          write_stat t a2 of_.Vfs.inode;
          ok 0
      | Some _ ->
          user_write t a2 (String.make Defs.stat_size '\000');
          ok 0
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_mkdir ->
      charge k cost.fs_op;
      let path = user_string t a1 in
      (match Vfs.mkdir k.vfs ~cwd:t.cwd path ~mode:a2 with
      | Ok () -> ok 0
      | Error e -> err e)
  | n when n = Defs.sys_rmdir ->
      charge k cost.fs_op;
      let path = user_string t a1 in
      (match Vfs.rmdir k.vfs ~cwd:t.cwd path with
      | Ok () -> ok 0
      | Error e -> err e)
  | n when n = Defs.sys_unlink ->
      charge k cost.fs_op;
      let path = user_string t a1 in
      (match Vfs.unlink k.vfs ~cwd:t.cwd path with
      | Ok () -> ok 0
      | Error e -> err e)
  | n when n = Defs.sys_rename ->
      charge k cost.fs_op;
      let src = user_string t a1 and dst = user_string t a2 in
      (match Vfs.rename k.vfs ~cwd:t.cwd ~src ~dst with
      | Ok () -> ok 0
      | Error e -> err e)
  | n when n = Defs.sys_chmod ->
      charge k cost.fs_op;
      let path = user_string t a1 in
      (match Vfs.chmod k.vfs ~cwd:t.cwd path ~mode:a2 with
      | Ok () -> ok 0
      | Error e -> err e)
  | n when n = Defs.sys_chdir ->
      let path = user_string t a1 in
      (match Vfs.lookup k.vfs ~cwd:t.cwd path with
      | Ok i when Vfs.is_dir i ->
          t.cwd <- (if path.[0] = '/' then path else t.cwd ^ "/" ^ path);
          ok 0
      | Ok _ -> err Defs.enotdir
      | Error e -> err e)
  | n when n = Defs.sys_getcwd ->
      let buf = a1 and size = a2 in
      let s = t.cwd ^ "\000" in
      if String.length s > size then err Defs.einval
      else begin
        user_write t buf s;
        ok (String.length s)
      end
  | n when n = Defs.sys_getdents -> (
      (* Custom layout: 64-byte records, name[56] NUL-padded + ino u64. *)
      match get_fd t a1 with
      | Some { kind = Kreg of_; _ } -> (
          match of_.Vfs.inode.Vfs.node with
          | Vfs.Dir entries ->
              let names =
                Hashtbl.fold (fun k' _ acc -> k' :: acc) entries []
                |> List.sort compare
              in
              let buf = a2 and cap = a3 in
              let nfit = min (List.length names - of_.Vfs.offset) (cap / 64) in
              if nfit <= 0 then ok 0
              else begin
                let skipped = List.filteri (fun i _ -> i >= of_.Vfs.offset) names in
                List.iteri
                  (fun idx name ->
                    if idx < nfit then begin
                      let rec_ = Bytes.make 64 '\000' in
                      let len = min 55 (String.length name) in
                      Bytes.blit_string name 0 rec_ 0 len;
                      (match Hashtbl.find_opt entries name with
                      | Some i -> Bytes.set_int64_le rec_ 56 (i64 i.Vfs.ino)
                      | None -> ());
                      user_write t (buf + (64 * idx)) (Bytes.to_string rec_)
                    end)
                  skipped;
                of_.Vfs.offset <- of_.Vfs.offset + nfit;
                charge_copy k (64 * nfit);
                ok (64 * nfit)
              end
          | Vfs.File _ | Vfs.Synth _ -> err Defs.enotdir)
      | Some _ -> err Defs.enotdir
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_dup -> (
      match get_fd t a1 with
      | None -> err Defs.ebadf
      | Some e ->
          e.refs <- e.refs + 1;
          let fd = t.fdt.next_fd in
          t.fdt.next_fd <- fd + 1;
          Hashtbl.replace t.fdt.fds fd e;
          ok fd)
  | n when n = Defs.sys_fcntl -> (
      match get_fd t a1 with
      | None -> err Defs.ebadf
      | Some e ->
          let cmd = a2 in
          if cmd = Defs.f_getfl then ok e.fflags
          else if cmd = Defs.f_setfl then begin
            e.fflags <- a3;
            ok 0
          end
          else err Defs.einval)
  | n when n = Defs.sys_pipe ->
      let a, b = Net.pair k.net in
      let rfd = alloc_fd t (Kstream a) ~flags:0 in
      let wfd = alloc_fd t (Kstream b) ~flags:0 in
      user_write_u64 t a1 (i64 rfd);
      user_write_u64 t (a1 + 8) (i64 wfd);
      ok 0
  | n when n = Defs.sys_socket -> ok (alloc_fd t (Kunbound { bound_port = None }) ~flags:0)
  | n when n = Defs.sys_bind -> (
      match get_fd t a1 with
      | Some ({ kind = Kunbound sp; _ } as _e) ->
          sp.bound_port <- Some (sockaddr_port t a2);
          ok 0
      | Some _ -> err Defs.einval
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_listen -> (
      match get_fd t a1 with
      | Some ({ kind = Kunbound { bound_port = Some port }; _ } as e) -> (
          match Net.listen k.net ~port ~backlog:(max 1 a2) with
          | Ok l ->
              e.kind <- Klisten l;
              ok 0
          | Error `In_use -> err Defs.eaddrinuse)
      | Some _ -> err Defs.einval
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_connect -> (
      match get_fd t a1 with
      | Some ({ kind = Kunbound _; _ } as e) -> (
          charge k cost.accept_op;
          match Net.connect k.net ~port:(sockaddr_port t a2) with
          | Ok ep ->
              e.kind <- Kstream ep;
              ok 0
          | Error `Refused -> err Defs.econnrefused)
      | Some _ -> err Defs.einval
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_accept || n = Defs.sys_accept4 -> (
      let fd = a1 in
      match get_fd t fd with
      | Some ({ kind = Klisten l; _ } as e) -> (
          charge k cost.accept_op;
          match Net.accept l with
          | Some ep ->
              let flags =
                if n = Defs.sys_accept4 then a4 land Defs.o_nonblock
                else 0
              in
              ok (alloc_fd t (Kstream ep) ~flags)
          | None ->
              if nonblocking e then err Defs.eagain else Block (Waccept fd))
      | Some _ -> err Defs.einval
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_shutdown -> (
      match get_fd t a1 with
      | Some { kind = Kstream ep; _ } ->
          Net.close_endpoint ep;
          ok 0
      | Some _ -> err Defs.enotsock
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_sendfile -> (
      let out_fd = a1
      and in_fd = a2
      and off_ptr = a3
      and count = a4 in
      match (get_fd t out_fd, get_fd t in_fd) with
      | Some ({ kind = Kstream ep; _ } as oe), Some { kind = Kreg of_; _ } -> (
          charge k (cost.sock_op + cost.fs_op);
          let pos =
            if off_ptr <> 0 then to_i (user_read_u64 t off_ptr)
            else of_.Vfs.offset
          in
          let space = Net.send_space ep in
          if space = 0 then
            match ep.peer with
            | None ->
                Ksignal.post k t Defs.sigpipe;
                err Defs.epipe
            | Some _ ->
                if nonblocking oe then err Defs.eagain
                else Block (Wwrite out_fd)
          else
            let len = min count space in
            match Vfs.pread of_ ~pos len with
            | Error e -> err e
            | Ok data -> (
                (* sendfile's raison d'etre: one copy instead of two *)
                charge_copy k (String.length data);
                match Net.send ep data 0 (String.length data) with
                | Ok sent ->
                    if off_ptr <> 0 then
                      user_write_u64 t off_ptr (i64 (pos + sent))
                    else of_.Vfs.offset <- pos + sent;
                    ok sent
                | Error `Pipe ->
                    Ksignal.post k t Defs.sigpipe;
                    err Defs.epipe))
      | _ -> err Defs.einval)
  | n when n = Defs.sys_epoll_create || n = Defs.sys_epoll_create1 ->
      ok (alloc_fd t (Kepoll { interest = Hashtbl.create 8 }) ~flags:0)
  | n when n = Defs.sys_epoll_ctl -> (
      match get_fd t a1 with
      | Some { kind = Kepoll ep; _ } ->
          let op = a2 and fd = a3 in
          charge k cost.epoll_op;
          if op = Defs.epoll_ctl_del then begin
            Hashtbl.remove ep.interest fd;
            ok 0
          end
          else begin
            let evp = a4 in
            let events = to_i (user_read_u64 t evp) in
            let data = user_read_u64 t (evp + 8) in
            Hashtbl.replace ep.interest fd (events, data);
            ok 0
          end
      | Some _ -> err Defs.einval
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_epoll_wait -> (
      let epfd = a1
      and events_ptr = a2
      and maxev = a3
      and timeout = a4 in
      match get_fd t epfd with
      | Some { kind = Kepoll ep; _ } -> (
          charge k cost.epoll_op;
          let ready = epoll_ready_list t ep in
          match ready with
          | [] -> (
              (* timeout = 0: poll.  timeout < 0: block forever.
                 timeout > 0 (milliseconds): block until the virtual
                 deadline, then return 0 — the deadline is stamped on
                 first issue so retries are idempotent. *)
              if timeout = 0 then ok 0
              else
                match t.sleep_until with
                | Some deadline when now k >= deadline ->
                    t.sleep_until <- None;
                    ok 0
                | Some _ -> Block (Wepoll epfd)
                | None ->
                    if timeout > 0 then
                      t.sleep_until <- Some (now k + (timeout * 2_100_000));
                    Block (Wepoll epfd))
          | _ ->
              t.sleep_until <- None;
              let ready = List.filteri (fun i _ -> i < maxev) ready in
              List.iteri
                (fun idx (_, ev, data) ->
                  let base = events_ptr + (Defs.epoll_event_size * idx) in
                  user_write_u64 t base (i64 ev);
                  user_write_u64 t (base + 8) data)
                ready;
              ok (List.length ready))
      | Some _ -> err Defs.einval
      | None -> err Defs.ebadf)
  | n when n = Defs.sys_rt_sigaction ->
      let sig_ = a1 and act_ptr = a2 and old_ptr = a3 in
      if sig_ < 1 || sig_ > Defs.nsig || sig_ = Defs.sigkill
         || sig_ = Defs.sigstop
      then err Defs.einval
      else begin
        let old = t.sighand.(sig_) in
        if old_ptr <> 0 then begin
          user_write_u64 t old_ptr old.sa_handler;
          user_write_u64 t (old_ptr + 8) old.sa_mask;
          user_write_u64 t (old_ptr + 16) old.sa_flags;
          user_write_u64 t (old_ptr + 24) old.sa_restorer
        end;
        if act_ptr <> 0 then begin
          let sa_handler = user_read_u64 t act_ptr in
          let sa_mask = user_read_u64 t (act_ptr + 8) in
          let sa_flags = user_read_u64 t (act_ptr + 16) in
          let sa_restorer = user_read_u64 t (act_ptr + 24) in
          t.sighand.(sig_) <- { sa_handler; sa_mask; sa_flags; sa_restorer }
        end;
        ok 0
      end
  | n when n = Defs.sys_rt_sigprocmask ->
      let how = a1 and set_ptr = a2 and old_ptr = a3 in
      if old_ptr <> 0 then user_write_u64 t old_ptr t.sigmask;
      if set_ptr <> 0 then begin
        let set = user_read_u64 t set_ptr in
        t.sigmask <-
          (match how with
          | 0 (* BLOCK *) -> Int64.logor t.sigmask set
          | 1 (* UNBLOCK *) -> Int64.logand t.sigmask (Int64.lognot set)
          | _ (* SETMASK *) -> set)
      end;
      ok 0
  | n when n = Defs.sys_rt_sigreturn ->
      Ksignal.sigreturn k t;
      Ret no_result
  | n when n = Defs.sys_kill ->
      let pid = a1 and sig_ = a2 in
      let found = ref false in
      Hashtbl.iter
        (fun _ u ->
          if u.tgid = pid && u.state <> Zombie then begin
            found := true;
            if sig_ <> 0 then
              if sig_ = Defs.sigkill then
                Ksignal.kill_task_group k u ~code:(128 + sig_)
              else Ksignal.post k u sig_
          end)
        k.tasks;
      if !found then ok 0 else err 3 (* ESRCH *)
  | n when n = Defs.sys_tgkill -> (
      match find_task k a2 with
      | Some u when u.state <> Zombie ->
          if a3 <> 0 then Ksignal.post k u a3;
          ok 0
      | _ -> err 3)
  | n when n = Defs.sys_fork || n = Defs.sys_vfork ->
      let child =
        do_fork k t ~vm:false ~files:false ~sighand:false ~stack:0 ~tls:0
          ~thread:false
      in
      ok child.tid
  | n when n = Defs.sys_clone ->
      let flags = a1 and stack = a2 in
      let tls = a5 in
      let vm = flags land Defs.clone_vm <> 0 in
      let child =
        do_fork k t ~vm ~files:(flags land Defs.clone_files <> 0)
          ~sighand:(flags land Defs.clone_sighand <> 0)
          ~stack
          ~tls:(if flags land Defs.clone_settls <> 0 then tls else 0)
          ~thread:(flags land Defs.clone_thread <> 0)
      in
      ok child.tid
  | n when n = Defs.sys_execve ->
      let path = user_string t a1 in
      do_execve k t path
  | n when n = Defs.sys_exit ->
      do_exit k t ~code:a1 ~group:false;
      Ret no_result
  | n when n = Defs.sys_exit_group ->
      do_exit k t ~code:a1 ~group:true;
      Ret no_result
  | n when n = Defs.sys_wait4 -> (
      let pid = a1 and status_ptr = a2 in
      match find_zombie_child k t ~pid with
      | Some child ->
          if status_ptr <> 0 then
            user_write_u64 t status_ptr (i64 (child.exit_code lsl 8));
          t.children <- List.filter (fun x -> x <> child.tid) t.children;
          Hashtbl.remove k.tasks child.tid;
          ok child.tid
      | None ->
          if t.children = [] then err Defs.echild else Block (Wchild pid))
  | n when n = Defs.sys_prctl ->
      let op = a1 in
      if op = Defs.pr_set_syscall_user_dispatch then begin
        let mode = a2 in
        if mode = Defs.pr_sys_dispatch_on then begin
          t.sud.sud_on <- true;
          t.sud.sud_lo <- a3;
          t.sud.sud_len <- a4;
          t.sud.sud_selector <- a5;
          ok 0
        end
        else begin
          t.sud.sud_on <- false;
          ok 0
        end
      end
      else err Defs.einval
  | n when n = Defs.sys_arch_prctl ->
      let op = a1 in
      if op = Defs.arch_set_gs then begin
        t.ctx.gs_base <- a2;
        ok 0
      end
      else if op = Defs.arch_set_fs then begin
        t.ctx.fs_base <- a2;
        ok 0
      end
      else if op = Defs.arch_get_gs then begin
        user_write_u64 t a2 (i64 t.ctx.gs_base);
        ok 0
      end
      else if op = Defs.arch_get_fs then begin
        user_write_u64 t a2 (i64 t.ctx.fs_base);
        ok 0
      end
      else err Defs.einval
  | n when n = Defs.sys_seccomp ->
      let op = a1 in
      if op <> Defs.seccomp_set_mode_filter then err Defs.einval
      else begin
        (* sock_fprog: len u64 @0, insns ptr u64 @8; each insn is
           code u16, jt u8, jf u8, k u32. *)
        let fprog = a3 in
        let len = to_i (user_read_u64 t fprog) in
        let insns_ptr = to_i (user_read_u64 t (fprog + 8)) in
        let raw = user_read t insns_ptr (8 * len) in
        let prog =
          Array.init len (fun idx ->
              let b = idx * 8 in
              {
                Bpf.code =
                  Char.code raw.[b] lor (Char.code raw.[b + 1] lsl 8);
                jt = Char.code raw.[b + 2];
                jf = Char.code raw.[b + 3];
                k =
                  Int32.logor
                    (Int32.of_int
                       (Char.code raw.[b + 4]
                       lor (Char.code raw.[b + 5] lsl 8)
                       lor (Char.code raw.[b + 6] lsl 16)))
                    (Int32.shift_left (Int32.of_int (Char.code raw.[b + 7])) 24);
              })
        in
        match Bpf.validate prog with
        | () ->
            t.filters <- prog :: t.filters;
            ok 0
        | exception Bpf.Invalid_program _ -> err Defs.einval
      end
  | n when n = Defs.sys_futex -> (
      let addr = a1 and op = a2 land 0x7F and v = a3 in
      match op with
      | op when op = Defs.futex_wait -> (
          (* Like nanosleep, a timed wait is retried by re-execution
             and must remember its absolute deadline; the retry after
             the deadline passes reports ETIMEDOUT. *)
          match t.sleep_until with
          | Some deadline when now k >= deadline ->
              t.sleep_until <- None;
              err Defs.etimedout
          | Some _ ->
              let cur = to_i (user_read_u64 t addr) in
              if cur <> v then begin
                t.sleep_until <- None;
                err Defs.eagain
              end
              else Block (Wfutex addr)
          | None ->
              let cur = to_i (user_read_u64 t addr) in
              if cur <> v then err Defs.eagain
              else begin
                let tsp = a4 in
                if tsp <> 0 then begin
                  let sec = user_read_u64 t tsp
                  and nsec = user_read_u64 t (tsp + 8) in
                  t.sleep_until <-
                    Some (now k + Int64.to_int (timespec_cycles sec nsec))
                end;
                Block (Wfutex addr)
              end)
      | op when op = Defs.futex_wake ->
          let woken = ref 0 in
          Hashtbl.iter
            (fun _ u ->
              match u.state with
              | Blocked (Wfutex a) when a = addr && !woken < v ->
                  u.state <- Runnable;
                  u.sleep_until <- None;
                  u.retrying <- false;
                  (* the waiter returns 0 from futex *)
                  Cpu.poke_reg u.ctx Isa.rax 0L;
                  u.ctx.rip <- u.ctx.rip + 2;
                  incr woken
              | _ -> ())
            k.tasks;
          ok !woken
      | _ -> err Defs.enosys)
  | n when n = Defs.sys_ptrace -> err Defs.enosys
  | _ -> err Defs.enosys

(** {1 Syscall entry: SUD, ptrace, seccomp, dispatch} *)

let seccomp_verdict (k : kernel) (t : task) nr : int =
  (* All filters run; the most restrictive action wins. *)
  let call_addr = t.ctx.rip in
  let data =
    {
      Bpf.nr;
      arch = Bpf.audit_arch_x86_64;
      instruction_pointer = call_addr;
      args =
        (let c = t.ctx in
         [|
           Cpu.peek_reg c Isa.rdi; Cpu.peek_reg c Isa.rsi;
           Cpu.peek_reg c Isa.rdx; Cpu.peek_reg c Isa.r10;
           Cpu.peek_reg c Isa.r8; Cpu.peek_reg c Isa.r9;
         |]);
    }
  in
  let precedence action =
    (* Lower = more restrictive. *)
    if action = Defs.seccomp_ret_kill_process then 0
    else if action = Defs.seccomp_ret_kill_thread then 1
    else if action = Defs.seccomp_ret_trap then 2
    else if action = Defs.seccomp_ret_errno then 3
    else if action = Defs.seccomp_ret_trace then 4
    else if action = Defs.seccomp_ret_log then 5
    else 6
  in
  List.fold_left
    (fun best prog ->
      charge k k.cost.seccomp_fixed;
      let v, steps = Bpf.run prog data in
      charge k (k.cost.bpf_insn * steps);
      let v = Int64.to_int (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL) in
      if precedence (v land Defs.seccomp_ret_action_full)
         < precedence (best land Defs.seccomp_ret_action_full)
      then v
      else best)
    Defs.seccomp_ret_allow t.filters

let ptrace_view (t : task) : ptrace_view =
  match t.pview with
  | Some pv -> pv
  | None ->
      let pv =
        {
          pv_task = t;
          pv_get_reg = (fun r -> Cpu.peek_reg t.ctx r);
          pv_set_reg = (fun r v -> Cpu.poke_reg t.ctx r v);
          pv_read_mem = (fun addr len -> Mem.peek_bytes t.mem addr len);
        }
      in
      t.pview <- Some pv;
      pv

let ptrace_stop_cost (k : kernel) (m : monitor) =
  charge k (2 * k.cost.context_switch);
  charge k (m.tracer_syscalls_per_stop * k.cost.syscall_base)

(** Full syscall entry path for a trap raised by a [syscall]
    instruction ([t.ctx.rip] already points past it). *)
let arg_regs = [| Isa.rdi; Isa.rsi; Isa.rdx; Isa.r10; Isa.r8; Isa.r9 |]

(* Record one application-scope syscall on the auditor, take a
   state-hash checkpoint when one is due, and honor a replay-to-point
   stop request.  [args] were captured at dispatch; everything else is
   read from the task's context *after* the result write, so the
   callee-saved registers and xstate reflect what the application
   observes on return. *)
let audit_syscall (k : kernel) (t : task) ~nr ~args ~ret ~path =
  match k.auditor with
  | None -> ()
  | Some a ->
      let module A = Sim_audit.Audit in
      A.record_syscall a ~tid:t.tid ~scope:A.App ~nr ~args ~ret ~path t.ctx;
      if A.checkpoint_due a then A.take_checkpoint a ~tid:t.tid t.ctx t.mem;
      if A.should_halt a then k.halted <- true

(* Record one application dispatch on the provenance ledger: recover
   the call-site PC, walk the guest rbp frame chain, stamp the
   dispatch-path mix and kernel-cycle cost per (site, nr).  Called
   just before {!audit_syscall} appends, so [ev] is the app-stream
   index this dispatch will be recorded at.

   Site recovery mirrors the interposer entries, and every candidate
   is validated by decoding: a genuine site holds the two bytes of
   [syscall] (0f 05) or of a rewritten [call rax] (ff d0).

   - Direct / ptrace dispatches execute the application's own
     [syscall], so [rip - 2] is the site.
   - Fast-path (and lazypoline's SUD slow-path) dispatches run inside
     the interposer stub, whose stack top still holds the application
     return address the [call rax] (or the emulated call push) left —
     site is that address minus 2.
   - The classic signal-driven stubs (the SUD and seccomp-user
     baselines) re-execute the syscall from inside the SIGSYS
     handler, where neither holds: there [rsp] is the signal frame
     base and the faulting site travels in siginfo's [si_call_addr]
     (frame base + 8 + the field offset), exactly where the stub's
     own PREP hypercall reads it.

   Candidates are tried in that order, first valid wins; an
   unverifiable dispatch falls back to [rip - 2] so the ledger still
   counts it.  Observation-only: every read is fault-guarded and
   nothing is charged or mutated. *)
let recover_site (t : task) ~path : int =
  let c = t.ctx in
  let valid pc =
    pc > 0
    &&
    match Mem.peek_bytes t.mem pc 2 with
    | b -> b = "\x0f\x05" || b = "\xff\xd0"
    | exception Mem.Fault _ -> false
  in
  let peek_site addr =
    match Mem.peek_u64 t.mem addr with
    | v -> Some (Int64.to_int v - 2)
    | exception Mem.Fault _ -> None
  in
  let rsp = Cpu.peek_reg_int c Isa.rsp in
  let candidates =
    match path with
    | Ev.Direct | Ev.Ptrace_path -> [ Some (c.rip - 2) ]
    | Ev.Fast_path -> [ peek_site rsp ]
    | Ev.Sud_sigsys | Ev.Seccomp_path ->
        [
          peek_site rsp;
          peek_site (rsp + 8 + Ksignal.si_call_addr_off);
        ]
  in
  match
    List.find_opt (function Some pc -> valid pc | None -> false) candidates
  with
  | Some (Some pc) -> pc
  | _ -> c.rip - 2

let prov_record (k : kernel) (t : task) ~nr ~path ~ts0 =
  match k.prov with
  | None -> ()
  | Some p ->
      let c = t.ctx in
      let site = recover_site t ~path in
      (* App-stream indices are 1-based (record_syscall increments
         then returns); this dispatch is audited right after us. *)
      let ev =
        match k.auditor with
        | Some a -> Sim_audit.Audit.app_count a + 1
        | None -> -1
      in
      let cycles = Int64.of_int (now k - ts0) in
      Sim_obs.Provenance.record p ~mem:t.mem ~site ~nr ~path
        ~rbp:(Cpu.peek_reg_int c Isa.rbp)
        ~cycles ~now:(Int64.of_int (now k)) ~ev;
      (* With the span recorder also attached, the request being
         served on this CPU learns its per-site kernel cycles — how
         exemplars name the hottest call site of their window. *)
      (match k.obs with
      | Some o -> Sim_obs.Obs.note_site o ~cpu:k.cur_cpu ~site ~cycles
      | None -> ())

(* Consult the syscall-flow-integrity engine for one application
   dispatch.  Site recovery reuses the provenance candidate logic —
   the result write has not happened yet, so rsp/rip are exactly as
   the interposer left them.  Returns [Some p] when the engine is
   enforcing (deny/kill) and the dispatch violated the policy; the
   caller suppresses the syscall and applies the verdict.  In report
   or learning mode the check is observation-only: it never charges
   cycles and never influences the run. *)
let policy_gate (k : kernel) (t : task) ~nr ~path : Policy.t option =
  match k.policy with
  | None -> None
  | Some p -> (
      Policy.clear_denial_tag p ~tid:t.tid;
      let enforcing =
        (not p.Policy.learning) && p.Policy.mode <> Policy.Report
      in
      if enforcing then charge k k.cost.policy_check;
      let site = recover_site t ~path in
      let pkey = Mem.pkey_at t.mem site in
      let index =
        match k.auditor with
        | Some a -> Sim_audit.Audit.app_count a + 1
        | None -> -1
      in
      match Policy.check p ~tid:t.tid ~nr ~site ~pkey ~index with
      | Some _ when enforcing -> Some p
      | _ -> None)

let syscall_entry (k : kernel) (t : task) =
  let c = t.ctx in
  let nr = Cpu.peek_reg_int c Isa.rax in
  let ts0 = now k in
  (* Cycles charged from here until the next guest instruction are
     kernel time for the profiler; the flag is reset before every
     [Cpu.step], so no explicit leave is needed on the many exits. *)
  enter_kernel k;
  (* Stage the dispatched nr so the span recorder can attribute the
     kernel cycles of this dispatch per syscall; self-heals with
     [in_kernel], so no explicit clear on the many exits either. *)
  (match k.obs with
  | Some o -> Sim_obs.Obs.set_cur_nr o k.cur_cpu nr
  | None -> ());
  (* 1. Syscall User Dispatch *)
  let sud_intercepts =
    if not t.sud.sud_on then false
    else begin
      charge k k.cost.sud_check;
      let insn_addr = c.rip - 2 in
      if insn_addr >= t.sud.sud_lo && insn_addr < t.sud.sud_lo + t.sud.sud_len
      then false
      else
        match Mem.peek_u8 t.mem t.sud.sud_selector with
        | b -> b = Defs.syscall_dispatch_filter_block
        | exception Mem.Fault _ ->
            (* An unreadable selector kills the task, as on Linux. *)
            Ksignal.kill_task_group k t ~code:(128 + Defs.sigsegv);
            false
    end
  in
  if t.state = Zombie then ()
  else if sud_intercepts then begin
    charge k k.cost.syscall_abort;
    (* Tag the in-flight syscall: the interposer's SIGSYS handler will
       re-issue it through its stub, and that dispatch should be
       attributed to the slow path, not to the stub's plain [syscall]
       instruction. *)
    if observing k then t.trace_path <- Some Ev.Sud_sigsys;
    Ksignal.force k t Defs.sigsys
      {
        si_signo = Defs.sigsys;
        si_code = Defs.sys_user_dispatch_code;
        si_call_addr = c.rip;
        si_syscall = nr;
      }
  end
  else begin
    (* 2. ptrace syscall-entry stop *)
    (match t.monitor with
    | Some m ->
        ptrace_stop_cost k m;
        m.on_entry (ptrace_view t)
    | None -> ());
    (* The tracer may have rewritten the syscall number. *)
    let nr = Cpu.peek_reg_int c Isa.rax in
    (match k.obs with
    | Some o -> Sim_obs.Obs.set_cur_nr o k.cur_cpu nr
    | None -> ());
    (* Audit: the argument registers as dispatched; result and
       callee-saved state are captured on the way out. *)
    let aud_args =
      match k.auditor with
      | Some _ -> Cpu.pack_regs c arg_regs
      | None -> ""
    in
    (* 3. seccomp *)
    let verdict =
      if t.filters = [] then Defs.seccomp_ret_allow else seccomp_verdict k t nr
    in
    let action = verdict land Defs.seccomp_ret_action_full in
    if action = Defs.seccomp_ret_kill_process
       || action = Defs.seccomp_ret_kill_thread
    then Ksignal.kill_task_group k t ~code:(128 + Defs.sigsys)
    else if action = Defs.seccomp_ret_trap then begin
      charge k k.cost.syscall_abort;
      Ksignal.force k t Defs.sigsys
        {
          si_signo = Defs.sigsys;
          si_code = Defs.sys_seccomp_code;
          si_call_addr = c.rip;
          si_syscall = nr;
        }
    end
    else if action = Defs.seccomp_ret_errno then begin
      charge k k.cost.syscall_abort;
      let e = verdict land Defs.seccomp_ret_data in
      Cpu.poke_reg_int c Isa.rax (-e);
      if k.tracer <> None then begin
        trace_emit_at k ~ts:(Int64.of_int ts0)
          (Ev.Syscall_enter { nr; path = Ev.Seccomp_path });
        trace_emit k
          (Ev.Syscall_exit
             { nr; path = Ev.Seccomp_path; ret = i64 (-e); blocked = false })
      end;
      (match k.metrics with
      | Some m ->
          Kmetrics.count_syscall m ~nr ~path:Ev.Seccomp_path;
          Kmetrics.observe_latency m (now k - ts0)
      | None -> ());
      (* The application observes this dispatch (a -errno result), so
         the policy state machine must see it too; seccomp already
         suppressed it, so an enforcing verdict has nothing to add. *)
      if not t.retrying then
        ignore (policy_gate k t ~nr ~path:Ev.Seccomp_path : Policy.t option);
      prov_record k t ~nr ~path:Ev.Seccomp_path ~ts0;
      audit_syscall k t ~nr ~args:aud_args ~ret:(Some (i64 (-e)))
        ~path:Ev.Seccomp_path;
      t.trace_path <- None
    end
    else begin
      (* 4. Dispatch. *)
      charge k k.cost.syscall_base;
      let tracing = k.tracer <> None in
      let observed = observing k in
      (* [rt_sigreturn] from the signal trampoline runs *between* the
         SUD intercept (which staged the tag) and the interposer
         stub's re-issued syscall (which the tag is for); it must
         neither consume nor clear the tag. *)
      let sigreturning = nr = Defs.sys_rt_sigreturn in
      let path =
        if not observed then Ev.Direct
        else
          match t.trace_path with
          | Some p when not sigreturning -> p
          | _ ->
              if t.monitor <> None then Ev.Ptrace_path
              else if t.filters <> [] then Ev.Seccomp_path
              else Ev.Direct
      in
      if tracing then
        trace_emit_at k ~ts:(Int64.of_int ts0) (Ev.Syscall_enter { nr; path });
      (match k.metrics with
      | Some m -> Kmetrics.count_syscall m ~nr ~path
      | None -> ());
      (* Chaos errno injection: an eligible first-issue syscall may
         transiently fail instead of dispatching.  Retries of a
         blocked syscall are exempt — their count is schedule- and
         mechanism-dependent, and injecting into them would misalign
         the injection keys across mechanisms. *)
      let injected_errno =
        match k.chaos with
        | Some ch when not t.retrying ->
            Sim_chaos.Chaos.errno_injection ch ~tid:t.tid ~nr
        | _ -> None
      in
      (* Syscall-flow-integrity gate: consulted once per application
         dispatch, at first issue like the chaos injections (retries
         of a blocked syscall re-enter here without passing through
         the interposer, and EINTR abandonment audits at the same
         index); [rt_sigreturn] is signal plumbing, not application
         flow.  Runs before dispatch so a deny/kill verdict can
         suppress the syscall. *)
      let policy_verdict =
        if t.retrying || sigreturning then None
        else policy_gate k t ~nr ~path
      in
      let res =
        match policy_verdict with
        | Some p ->
            if p.Policy.mode = Policy.Deny then
              Policy.note_denied p ~tid:t.tid;
            Ret (i64 (-Defs.eperm))
        | None -> (
            match injected_errno with
            | Some e -> Ret (i64 (-e))
            | None ->
                if nr < 0 || nr > Defs.max_syscall then
                  Ret (i64 (-Defs.enosys))
                else
                  try do_syscall k t nr
                  with Efault -> Ret (i64 (-Defs.efault)))
      in
      (match k.metrics with
      | Some m ->
          Kmetrics.observe_latency m (now k - ts0)
      | None -> ());
      (match res with
      | Ret v when v = no_result -> ()
      | Ret v ->
          t.retrying <- false;
          Cpu.poke_reg c Isa.rax v;
          (* The kernel clobbers rcx and r11 (sysret ABI). *)
          Cpu.poke_reg_int c Isa.rcx c.rip;
          Cpu.poke_reg_int c Isa.r11 (Ksignal.flags_word c)
      | Block reason ->
          (* Rewind to the syscall instruction; it is retried on
             wakeup. *)
          c.rip <- c.rip - 2;
          t.state <- Blocked reason;
          t.retrying <- true;
          (* Chaos block-signal injection: decide, as the wait
             begins, whether a signal interrupts it — driving the
             SA_RESTART vs -EINTR paths under every mechanism at the
             same application event. *)
          (match k.chaos with
          | Some ch -> (
              match
                Sim_chaos.Chaos.block_signal_injection ch ~tid:t.tid
                  ~handler_ok:(fun s ->
                    let h = t.sighand.(s).sa_handler in
                    h <> Defs.sig_dfl && h <> Defs.sig_ign)
              with
              | Some s -> Ksignal.post k t s
              | None -> ())
          | None -> ()));
      (match (k.strace, res) with
      | Some f, Ret v -> f t nr v
      | Some f, Block _ -> f t nr (i64 (-512) (* ERESTARTSYS-ish *))
      | None, _ -> ());
      (* 5. ptrace syscall-exit stop *)
      (match t.monitor with
      | Some m when t.state <> Zombie ->
          ptrace_stop_cost k m;
          m.on_exit (ptrace_view t)
      | _ -> ());
      (* Audit after the exit stop so a ptrace monitor's result
         rewrite (if any) is what gets recorded — the application
         never sees anything earlier.  Blocked syscalls record only
         on their final (Ret) retry; [rt_sigreturn] is recorded by
         the signal layer as a frame-scoped event instead. *)
      (match res with
      | Ret v when not sigreturning ->
          let ret =
            if v = no_result then None else Some (Cpu.peek_reg c Isa.rax)
          in
          prov_record k t ~nr ~path ~ts0;
          audit_syscall k t ~nr ~args:aud_args ~ret ~path
      | _ -> ());
      (* Chaos async-signal injection: a completed application
         syscall may leave a signal pending, delivered before the
         next guest instruction — which under an interposer is
         typically inside its stub or trampoline, exactly the windows
         the paper's correctness claim covers. *)
      (match (k.chaos, res) with
      | Some ch, Ret v when v <> no_result && not sigreturning -> (
          match
            Sim_chaos.Chaos.post_syscall_injection ch ~tid:t.tid ~nr
              ~handler_ok:(fun s ->
                let h = t.sighand.(s).sa_handler in
                h <> Defs.sig_dfl && h <> Defs.sig_ign)
          with
          | Some s -> Ksignal.post k t s
          | None -> ())
      | _ -> ());
      if tracing then begin
        let ret, blocked =
          match res with
          | Ret v -> ((if v = no_result then 0L else v), false)
          | Block _ -> (0L, true)
        in
        trace_emit k (Ev.Syscall_exit { nr; path; ret; blocked })
      end;
      (* A kill verdict fires only after the denied dispatch has been
         fully recorded: the audit stream ends with the violating
         syscall's -EPERM followed by the task exit. *)
      (match policy_verdict with
      | Some p when p.Policy.mode = Policy.Kill && t.state <> Zombie ->
          Policy.note_killed p;
          Ksignal.kill_task_group k t ~code:(128 + Defs.sigsys)
      | _ -> ());
      (* A blocked syscall keeps its tag: the retry re-enters here
         without passing through the interposer again. *)
      match res with
      | Block _ -> ()
      | Ret _ -> if not sigreturning then t.trace_path <- None
    end
  end

(** Kernel services for interposer hypercall handlers: performs [nr]
    with explicit arguments on behalf of [t], charging the syscall
    round trip (plus the SUD-enabled entry tax when active) exactly
    as if the interposer had executed its own [syscall] instruction
    from an allowlisted context.  Must not be used for syscalls that
    can block. *)
let kernel_syscall (k : kernel) (t : task) nr (args : int64 array) : int64 =
  let ts0 = now k in
  enter_kernel k;
  (* Nested dispatch: attribute this service to its own nr, then put
     the outer dispatch's staging back. *)
  let saved_nr =
    match k.obs with
    | Some o ->
        let s = Sim_obs.Obs.cur_nr o k.cur_cpu in
        Sim_obs.Obs.set_cur_nr o k.cur_cpu nr;
        s
    | None -> -1
  in
  charge k k.cost.syscall_base;
  if t.sud.sud_on then charge k k.cost.sud_check;
  let c = t.ctx in
  let saved = Cpu.pack_regs c arg_regs in
  Array.iteri
    (fun i r ->
      Cpu.poke_reg c r (if i < Array.length args then args.(i) else 0L))
    arg_regs;
  let res =
    if nr < 0 || nr > Defs.max_syscall then Ret (i64 (-Defs.enosys))
    else try do_syscall k t nr with Efault -> Ret (i64 (-Defs.efault))
  in
  Cpu.unpack_regs c arg_regs saved;
  (match k.obs with
  | Some o -> Sim_obs.Obs.set_cur_nr o k.cur_cpu saved_nr
  | None -> ());
  leave_kernel k;
  match res with
  | Ret v when v = no_result ->
      invalid_arg "kernel_syscall: control-transfer syscall"
  | Ret v ->
      (* Interposer-internal syscalls are their own (direct) spans;
         they must not consume the dispatch-path tag staged for the
         application syscall they serve. *)
      if k.tracer <> None then begin
        trace_emit_at k ~ts:(Int64.of_int ts0)
          (Ev.Syscall_enter { nr; path = Ev.Direct });
        trace_emit k
          (Ev.Syscall_exit { nr; path = Ev.Direct; ret = v; blocked = false })
      end;
      (match k.metrics with
      | Some m ->
          Kmetrics.count_syscall m ~nr ~path:Ev.Direct;
          Kmetrics.observe_latency m (now k - ts0)
      | None -> ());
      (* Mechanism-private by definition: this syscall exists only
         because of how the interposer is implemented (gs-area mmap,
         selector arch_prctl, rewrite mprotect pairs, ...). *)
      (match k.auditor with
      | Some a ->
          let args6 =
            Sim_audit.Audit.pack
              (Array.init 6 (fun i ->
                   if i < Array.length args then args.(i) else 0L))
          in
          Sim_audit.Audit.record_syscall a ~tid:t.tid
            ~scope:Sim_audit.Audit.Mech ~nr ~args:args6 ~ret:(Some v)
            ~path:Ev.Direct c
      | None -> ());
      v
  | Block _ -> invalid_arg "kernel_syscall: syscall would block"

(** {1 Scheduler} *)

let runnable_on (k : kernel) cpu (t : task) =
  t.state = Runnable && t.on_cpu = -1 && (t.affinity = -1 || t.affinity = cpu)
  && not k.halted

(** Wake blocked tasks whose wait condition is satisfied. *)
let reap_wakeups (k : kernel) =
  Hashtbl.iter
    (fun _ t ->
      match t.state with
      | Blocked reason -> (
          let wake_eintr () =
            (* Abandon the syscall: skip the rewound instruction and
               report EINTR, then let signal delivery run.  The
               abandoned syscall will not retry, so its dispatch-path
               tag dies with it.  The -EINTR completion is part of the
               application's observable history — record it like any
               other result (the arg registers are untouched since
               dispatch; rax still holds the syscall number). *)
            let nr = Cpu.peek_reg_int t.ctx Isa.rax in
            let path =
              match t.trace_path with Some p -> p | None -> Ev.Direct
            in
            t.trace_path <- None;
            t.sleep_until <- None;
            t.retrying <- false;
            t.ctx.rip <- t.ctx.rip + 2;
            Cpu.poke_reg_int t.ctx Isa.rax (-Defs.eintr);
            t.state <- Runnable;
            match k.auditor with
            | Some _ ->
                let args = Cpu.pack_regs t.ctx arg_regs in
                audit_syscall k t ~nr ~args
                  ~ret:(Some (i64 (-Defs.eintr)))
                  ~path
            | None -> ()
          in
          match Ksignal.first_actionable t with
          | Some s ->
              (* SA_RESTART semantics: if the handler about to run was
                 installed with SA_RESTART and the syscall is
                 restartable, leave rip rewound at the syscall
                 instruction — delivery saves that rip in the frame,
                 so sigreturn transparently re-executes the wait.
                 Otherwise the syscall completes with -EINTR before
                 the handler runs. *)
              let restart =
                Int64.logand t.sighand.(s).sa_flags (i64 Defs.sa_restart)
                <> 0L
                && Defs.syscall_restartable
                     (Cpu.peek_reg_int t.ctx Isa.rax)
              in
              if restart then t.state <- Runnable else wake_eintr ()
          | None ->
              let ready =
                match reason with
                | Wread fd -> fd_readable t fd
                | Wwrite fd -> fd_writable t fd
                | Waccept fd -> fd_readable t fd
                | Wepoll epfd -> (
                    (* readiness or an expired positive timeout: the
                       retry distinguishes them (ready list vs return
                       0). *)
                    (match t.sleep_until with
                    | Some deadline -> min_clock k >= deadline
                    | None -> false)
                    ||
                    match get_fd t epfd with
                    | Some { kind = Kepoll ep; _ } ->
                        epoll_ready_list t ep <> []
                    | _ -> true)
                | Wchild pid -> find_zombie_child k t ~pid <> None
                | Wsleep until -> min_clock k >= until
                | Wfutex _ -> (
                    (* woken directly by FUTEX_WAKE, or by an expired
                       timeout (the retry reports ETIMEDOUT) *)
                    match t.sleep_until with
                    | Some deadline -> min_clock k >= deadline
                    | None -> false)
              in
              if ready then t.state <- Runnable)
      | Runnable | Zombie -> ())
    k.tasks

let pick_task (k : kernel) cpu : task option =
  reap_wakeups k;
  let best = ref None in
  Hashtbl.iter
    (fun _ t ->
      if runnable_on k cpu t then
        match !best with
        | None -> best := Some t
        | Some b -> if t.last_run < b.last_run then best := Some t)
    k.tasks;
  !best

exception Too_many_steps

(** Route [t]'s per-address-space observers (mapping changes, decoded
    icache invalidations) into the machine-wide tracer and metrics
    registry.  Installed lazily whenever a task is scheduled while an
    observer is attached, so tasks created before the observer, forked
    children and execve'd images (which all carry hook-less fresh
    state) are caught on their next slice. *)
let install_observe_hooks (k : kernel) (t : task) =
  Mem.set_trace_hook t.mem
    (Some
       (function
         | Mem.Tmap { addr; len; x } ->
             trace_emit k (Ev.Mmap { addr; len; prot_exec = x });
             (match k.metrics with
             | Some m -> Kmetrics.add m.Kmetrics.mmap_bytes len
             | None -> ())
         | Mem.Tunmap { addr; len } ->
             trace_emit k (Ev.Munmap { addr; len });
             (match k.metrics with
             | Some m -> Kmetrics.add m.Kmetrics.munmap_bytes len
             | None -> ())
         | Mem.Tprotect { addr; len; x; x_gained } ->
             trace_emit k (Ev.Mprotect { addr; len; prot_exec = x });
             (match k.metrics with
             | Some m ->
                 Kmetrics.add m.Kmetrics.mprotect_bytes len;
                 if x_gained then incr m.Kmetrics.wx_flips
             | None -> ());
             (* Pages that were written and then flipped executable:
                the W^X publish step of JIT emission (minicc's jit
                does exactly this store-then-mprotect dance). *)
             if x_gained then trace_emit k (Ev.Jit_emit { addr; len })));
  t.icache.Icache.on_invalidate <-
    Some (fun page -> trace_emit k (Ev.Icache_invalidate { page }))

(** Run [t] on the current CPU until it blocks, exits, or the slice
    ends. *)
let run_task (k : kernel) (t : task) =
  let slot = k.cpus.(k.cur_cpu) in
  let prev_tid = slot.last_tid in
  let switched = prev_tid <> t.tid && prev_tid <> -1 in
  if switched then charge k k.cost.context_switch;
  slot.last_tid <- t.tid;
  t.on_cpu <- k.cur_cpu;
  t.last_run <- slot.clk;
  k.cur_task <- Some t;
  (match k.obs with
  | Some o ->
      Sim_obs.Obs.task_on o ~cpu:k.cur_cpu ~tid:t.tid
        ~ts:(Int64.of_int slot.clk)
  | None -> ());
  if switched then begin
    trace_emit k (Ev.Context_switch { prev_tid; next_tid = t.tid });
    (match k.auditor with
    | Some a -> Sim_audit.Audit.record_sched a ~tid:t.tid ~prev:prev_tid
    | None -> ());
    match k.metrics with
    | Some m -> incr m.Kmetrics.ctx_switches
    | None -> ()
  end;
  if observing k then install_observe_hooks k t;
  let cost = k.cost in
  let engine = k.blocks_on && k.icache_on in
  (* Chaos preemption: a fired decision ends this task's turn at the
     current instruction boundary, as if the quantum expired — the
     scheduler then re-picks (round-robin hands the CPU to the
     longest-waiting runnable task). *)
  let preempted = ref false in
  (* Block-runner callbacks, hoisted out of the hot loop.  Per-op
     charging is only needed when a profiler wants per-instruction
     tick attribution; otherwise the runner accumulates units and the
     exit phase bulk-charges (clock and task-cycle sums are
     identical, and nothing else can observe the clock mid-block:
     blocks contain no syscalls, traps or rdtsc). *)
  let charge_units u = charge k (cost.insn * u) in
  let per_op =
    match k.profiler with Some _ -> Some charge_units | None -> None
  in
  let chaos_cb =
    match k.chaos with
    | Some ch ->
        Some
          (fun () ->
            let p =
              Sim_chaos.Chaos.preempt_injection ch ~tid:t.tid
                ~rip:t.ctx.Cpu.rip ~sig_depth:t.sig_depth
            in
            if p then preempted := true;
            p)
    | None -> None
  in
  (* Units of [last_cost] the block runner may start: op i runs iff
     the units accumulated before it satisfy
     [cost.insn * acc < slice_end - clk] — exactly the single-step
     loop's per-instruction [clk < slice_end] pre-check. *)
  let budget_units () =
    let d = k.slice_end - slot.clk in
    let ci = cost.insn in
    if ci <= 0 then max_int else if ci = 1 then d else (d + ci - 1) / ci
  in
  (try
     while
       t.state = Runnable && slot.clk < k.slice_end && not k.halted
       && not !preempted
     do
       (* Kernel work from here (signal delivery, the next dispatch)
          starts outside any syscall; the span recorder's staged nr
          self-heals with [in_kernel] below. *)
       (match k.obs with
       | Some o -> Sim_obs.Obs.set_cur_nr o k.cur_cpu (-1)
       | None -> ());
       if t.pending <> 0L && signal_pending_unmasked t then
         ignore (Ksignal.deliver_pending k t);
       if t.state = Runnable then begin
         (* Self-healing kernel-depth reset: syscall dispatch and
            signal delivery only ever increment, so any path that
            leaves the kernel (including the many early exits)
            lands here and clears the depth before guest code runs. *)
         k.in_kernel <- 0;
         (* Enter-block: one icache lookup, which may return a
            compiled block covering rip only with the engine on and no
            register-access hook installed (a hooked task must be seen
            at every instruction boundary). *)
         let blocks = engine && t.ctx.Cpu.hook = None in
         if engine && not blocks then Icache.note_hooked_fallback t.icache;
         let hit =
           if k.icache_on then
             Icache.lookup t.icache t.mem t.ctx.Cpu.rip ~blocks
           else Icache.Miss
         in
         let from_block = match hit with Icache.Block _ -> true | _ -> false in
         let oc =
           match hit with
           | Icache.Block (blk, i0) ->
               (* Exit-block: the runner makes one bulk charge for
                  everything it retired (none when a profiler forced
                  the per-op path). *)
               Cpu.run_block t.ctx t.mem blk i0 ~budget:(budget_units ())
                 ~per_op ~bulk:charge_units ~chaos:chaos_cb
           | Icache.Entry _ | Icache.Miss -> Cpu.step_hit t.ctx t.mem hit
         in
         (match oc with
         | Cpu.Stepped ->
             if not from_block then
               charge k (cost.insn * t.ctx.Cpu.last_cost)
         | Cpu.Trap_syscall ->
             charge k cost.insn;
             syscall_entry k t
         | Cpu.Trap_hypercall n -> (
             charge k cost.insn;
             match Hashtbl.find k.hypercalls n with
             | f -> f k t
             | exception Not_found ->
                 (* An unregistered hypercall is an illegal
                    instruction (UD2 semantics). *)
                 Ksignal.force k t Defs.sigill
                   { si_signo = Defs.sigill; si_code = 0;
                     si_call_addr = t.ctx.rip; si_syscall = 0 })
         | Cpu.Halted ->
             do_exit k t ~code:(Cpu.peek_reg_int t.ctx Isa.rdi) ~group:true
         | Cpu.Trap_breakpoint ->
             Ksignal.force k t 5 (* SIGTRAP *)
               { si_signo = 5; si_code = 0; si_call_addr = t.ctx.rip;
                 si_syscall = 0 }
         | Cpu.Fault (addr, _) ->
             Ksignal.force k t Defs.sigsegv
               { si_signo = Defs.sigsegv; si_code = 0; si_call_addr = addr;
                 si_syscall = 0 }
         | Cpu.Fault_arith ->
             Ksignal.force k t Defs.sigfpe
               { si_signo = Defs.sigfpe; si_code = 0;
                 si_call_addr = t.ctx.rip; si_syscall = 0 }
         | Cpu.Bad_instr addr ->
             Ksignal.force k t Defs.sigill
               { si_signo = Defs.sigill; si_code = 0; si_call_addr = addr;
                 si_syscall = 0 });
         (* Per-retired-instruction chaos draw.  A block's ops each
            drew inside the runner with identical per-op inputs, so a
            completed block must not draw again; a block's terminal
            faulting op never draws in the runner and takes the
            standard post-outcome draw here, exactly like a faulting
            single step (the draw happens after signal forcing, with
            the handler's rip and signal depth). *)
         if (not from_block) || oc <> Cpu.Stepped then begin
           match k.chaos with
           | Some ch ->
               if
                 t.state = Runnable
                 && Sim_chaos.Chaos.preempt_injection ch ~tid:t.tid
                      ~rip:t.ctx.Cpu.rip ~sig_depth:t.sig_depth
               then preempted := true
           | None -> ()
         end
       end
     done
   with Ksignal.Killed_by_signal _ -> ());
  (match k.obs with
  | Some o ->
      let blocked = match t.state with Blocked _ -> true | _ -> false in
      Sim_obs.Obs.task_off o ~cpu:k.cur_cpu ~tid:t.tid
        ~ts:(Int64.of_int slot.clk) ~blocked
  | None -> ());
  t.tcycles <- Int64.add t.tcycles (Int64.of_int k.cur_cycles);
  k.cur_cycles <- 0;
  k.cur_task <- None;
  t.on_cpu <- -1

(** Advance the machine by one scheduling slice.

    Halt-transparency: once [k.halted] latches (an audit [stop_after]
    barrier), the slice stops dead — no clock round-up to the slice
    boundary, no actor steps, no [slice_end] advance.  A halted
    machine whose barrier is then moved forward resumes exactly where
    it stopped, with the same clocks and slice phase an uninterrupted
    run would have had; the time-travel debugger's forward stepping
    depends on this. *)
let run_slice (k : kernel) =
  let ncpu = Array.length k.cpus in
  for cpu = 0 to ncpu - 1 do
    if not k.halted then begin
      k.cur_cpu <- cpu;
      let slot = k.cpus.(cpu) in
      if slot.clk < k.slice_end then begin
        let continue_ = ref true in
        while !continue_ && slot.clk < k.slice_end && not k.halted do
          match pick_task k cpu with
          | Some t -> run_task k t
          | None ->
              slot.clk <- k.slice_end;
              continue_ := false
        done;
        if slot.clk < k.slice_end && not k.halted then
          slot.clk <- k.slice_end
      end
    end
  done;
  if not k.halted then begin
    List.iter (fun step -> step ()) k.actors;
    k.slice_end <- k.slice_end + Int64.to_int k.slice
  end

let all_exited (k : kernel) =
  Hashtbl.fold (fun _ t acc -> acc && t.state = Zombie) k.tasks true

(** Run until every task is a zombie or [max_slices] elapse.  Returns
    [true] if everything exited. *)
let run_until_exit ?(max_slices = 2_000_000) (k : kernel) =
  let rec go n =
    if all_exited k || k.halted then true
    else if n = 0 then false
    else begin
      run_slice k;
      go (n - 1)
    end
  in
  go max_slices

(** Run for [cycles] simulated cycles (per CPU). *)
let run_for (k : kernel) (cycles : int64) =
  let target = min_clock k + Int64.to_int cycles in
  while min_clock k < target && (not (all_exited k)) && not k.halted do
    run_slice k
  done
