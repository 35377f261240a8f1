(** The observation-only subscribers — event tracer, metrics registry,
    sampling profiler, divergence auditor, request-flow span recorder
    and provenance ledger — each a {!Types.observer} over the one
    kernel-event stream (DESIGN.md §17).  A subscriber reads its own
    tool and the kernel, never another subscriber. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Types
module Ev = Sim_trace.Event
module Tracer = Sim_trace.Tracer
module A = Sim_audit.Audit
module Obs = Sim_obs.Obs
module Prov = Sim_obs.Provenance
module Profiler = Sim_metrics.Profiler

let subscriber ?on_tick ?(per_insn = false)
    ?(probes = fun _ -> []) ?(proc = fun _ -> "") on_event =
  { on_event; on_tick; per_insn; probes; proc }

let register_probes (m : Kmetrics.t) =
  List.iter (fun (name, help, read) ->
      Sim_metrics.Metrics.probe m.Kmetrics.registry ~help name read)

(** Subscribe [o] to [k]'s event stream: its probes join an attached
    metrics registry, and [o] sees {!Types.Attached} first. *)
let observe (k : kernel) (o : observer) =
  k.observers <- k.observers @ [ o ];
  Option.iter (fun f -> k.tickers <- k.tickers @ [ f ]) o.on_tick;
  Option.iter (fun m -> register_probes m (o.probes k)) k.metrics;
  o.on_event k Attached

(** The PC of the [syscall] (or rewritten [call rax]) an application
    dispatch came from, valid until its result is written back.
    Direct and ptrace dispatches execute the application's own
    [syscall] ([rip - 2]); fast-path stubs (and lazypoline's slow
    path) still hold the application return address on the stack
    top; the signal-driven SUD and seccomp-user stubs run inside the
    SIGSYS handler, whose frame carries the site in siginfo's
    [si_call_addr].  Candidates are tried in that order, each
    validated by decoding the two bytes of [syscall] (0f 05) or
    [call rax] (ff d0); an unverifiable dispatch falls back to
    [rip - 2].  Reads are fault-guarded and change nothing. *)
let recover_site (t : task) ~path : int =
  let c = t.ctx in
  let valid pc =
    pc > 0
    &&
    match Mem.peek_bytes t.mem pc 2 with
    | b -> b = "\x0f\x05" || b = "\xff\xd0"
    | exception Mem.Fault _ -> false
  in
  let return_site addr =
    match Mem.peek_u64 t.mem addr with
    | v -> Int64.to_int v - 2
    | exception Mem.Fault _ -> -1
  in
  let rsp = Cpu.peek_reg_int c Isa.rsp in
  let candidates =
    match path with
    | Ev.Direct | Ev.Ptrace_path -> [ c.rip - 2 ]
    | Ev.Fast_path -> [ return_site rsp ]
    | Ev.Sud_sigsys | Ev.Seccomp_path ->
        [ return_site rsp; return_site (rsp + 8 + Ksignal.si_call_addr_off) ]
  in
  match List.find_opt valid candidates with Some pc -> pc | None -> c.rip - 2

(** {1 Probes}

    The integrity probes take their tool as an option: [None] gives
    the same gauges reading 0, which the registry carries while that
    observer is absent. *)

let read opt f () = match opt with Some x -> f x | None -> 0

let trace_probes k tr =
  List.init (Array.length k.cpus) (fun cpu ->
      ( Printf.sprintf "sim_trace_ring_dropped_cpu%d" cpu,
        "trace-ring events dropped on this CPU (ring overflow)",
        read tr (fun tr -> Tracer.dropped_on tr cpu) ))
  @ [ ( "sim_trace_ring_dropped_total", "trace-ring events dropped (all CPUs)",
        read tr Tracer.dropped ) ]

let spans_probes o =
  [
    ( "sim_obs_inflight_overflow_total",
      "requests dropped at issue: span in-flight table full",
      read o Obs.overflow );
    ( "sim_obs_reservoir_evictions_total",
      "exemplars evicted from the slow-request reservoir (informational)",
      read o Obs.evictions );
    ("sim_obs_requests_issued_total", "requests issued (span recorder)",
     read o Obs.issued);
    ("sim_obs_requests_completed_total", "requests completed (span recorder)",
     read o Obs.completed_count);
  ]

let ledger_probes p =
  [
    ( "sim_site_unwind_attempts_total",
      "guest backtrace attempts (provenance ledger)",
      read p Prov.unwind_attempts );
    ( "sim_site_unwind_resolved_total",
      "guest backtraces that recovered at least one frame",
      read p Prov.unwind_resolved );
    ("sim_site_distinct", "distinct (site, nr) ledger entries",
     read p Prov.distinct_sites);
    ("sim_site_rewrites", "distinct rewritten sites stamped on the ledger",
     read p Prov.rewrite_count);
    ("sim_site_dropped_total",
     "dispatches dropped by the ledger's site-table cap",
     read p Prov.sites_dropped);
  ]

(* The process-wide decoded-icache and block-engine counters (they
   count every kernel in the process), reported from attach on. *)
let icache_counters =
  let since = " (since attach)" in
  Icache.
    [
      ("sim_icache_hits_total", "decoded-icache hits" ^ since, g_hits);
      ("sim_icache_misses_total", "decoded-icache misses" ^ since, g_misses);
      ("sim_icache_invalidations_total",
       "decoded-icache page invalidations" ^ since, g_invalidations);
      ("sim_icache_fallbacks_total",
       "decoded-icache uncached-path fallbacks" ^ since, g_fallbacks);
      ("sim_blocks_compiled_total", "threaded-code blocks compiled" ^ since,
       g_blocks_compiled);
      ("sim_block_hits_total", "threaded-code block entries" ^ since,
       g_block_hits);
      ("sim_block_kills_total",
       "threaded-code blocks killed by page invalidation" ^ since,
       g_block_kills);
      ("sim_block_insns_total",
       "instructions retired inside compiled blocks" ^ since, g_block_insns);
      ("sim_block_fallback_cold_total",
       "block-engine fallbacks: offset below the heat threshold",
       g_block_fb_cold);
      ("sim_block_fallback_uncompilable_total",
       "block-engine fallbacks: offset cannot head a block",
       g_block_fb_uncompilable);
      ("sim_block_fallback_hooked_total",
       "block-engine fallbacks: register-access hook installed",
       g_block_fb_hooked);
      ("sim_block_exit_end_total", "block exits: ran to the last op",
       g_bexit_end);
      ("sim_block_exit_budget_total", "block exits: slice budget exhausted",
       g_bexit_budget);
      ("sim_block_exit_smc_total",
       "block exits: store invalidated the executing block", g_bexit_smc);
      ("sim_block_exit_fault_total", "block exits: op faulted", g_bexit_fault);
      ("sim_block_exit_preempt_total",
       "block exits: chaos preemption fired mid-block", g_bexit_preempt);
    ]

(* Scheduler, clock and policy-engine gauges read off the kernel. *)
let kernel_probes k =
  let module P = Sim_policy.Policy in
  let policy f () = match k.policy with Some p -> f p | None -> 0 in
  [
    ( "sim_sched_runnable", "tasks in runnable state",
      fun () ->
        Hashtbl.fold
          (fun _ t n -> if t.state = Runnable then n + 1 else n)
          k.tasks 0 );
    ("sim_tasks", "tasks alive (any state)", fun () -> Hashtbl.length k.tasks);
    ("sim_cycles", "earliest per-CPU simulated clock", fun () -> min_clock k);
    ("sim_policy_checks_total", "policy-engine dispatch checks",
     policy (fun p -> p.P.checks));
    ("sim_policy_violations_total", "policy violations (all kinds)",
     policy P.violation_count);
    ("sim_policy_denied_total",
     "syscalls failed with -EPERM by the policy engine",
     policy (fun p -> p.P.denied));
    ("sim_policy_killed_total", "tasks killed by the policy engine",
     policy (fun p -> p.P.killed));
  ]
  @ List.map
      (fun (kind, leaf) ->
        ( Printf.sprintf "sim_policy_violations_%s_total" leaf,
          Printf.sprintf "policy violations: %s check failed" leaf,
          policy (fun p -> P.kind_count p kind) ))
      [ (P.Vnode, "node"); (P.Vedge, "edge"); (P.Vsite, "site");
        (P.Vcompartment, "compartment") ]

(** {1 Subscribers} *)

(** The machine-wide event tracer: every event lands on the current
    CPU's ring, syscall spans opening at their dispatch start. *)
let tracer (tr : Tracer.t) =
  let emit_at k ts kind =
    let tid = match k.cur_task with Some t -> t.tid | None -> -1 in
    Tracer.emit tr ~cpu:k.cur_cpu ~tid ~ts kind
  in
  let emit k kind = emit_at k (Int64.of_int (now k)) kind in
  subscriber
    ~probes:(fun k -> trace_probes k (Some tr))
    (fun k -> function
      | Trace kind -> emit k kind
      | Syscall_enter { nr; path; ts0 } ->
          emit_at k (Int64.of_int ts0) (Ev.Syscall_enter { nr; path })
      | Syscall { nr; path; ret; blocked; _ } ->
          let ret = if blocked || ret = no_result then 0L else ret in
          emit k (Ev.Syscall_exit { nr; path; ret; blocked })
      | Signal_deliver { signo; handler; _ } ->
          emit k (Ev.Signal_deliver { signo; handler })
      | Sigreturn _ -> emit k Ev.Sigreturn
      | Rewrite { site; how = Prov.Rw_lazy | Prov.Rw_manual } ->
          emit k (Ev.Rewrite { site })
      | _ -> ())

(** The metrics registry.  Attaching makes [m] the kernel's registry
    ([k.metrics], rendered by /proc/metrics) and registers the
    scrape-time probes: {!icache_counters} as deltas since attach,
    {!kernel_probes}, and the integrity probes of every observer,
    attached before or after. *)
let metrics (m : Kmetrics.t) =
  let open Kmetrics in
  let attach k =
    k.metrics <- Some m;
    register_probes m
      (List.map
         (fun (name, help, g) ->
           let base = !g in
           (name, help, fun () -> !g - base))
         icache_counters
      @ kernel_probes k @ trace_probes k None @ spans_probes None
      @ ledger_probes None
      @ List.concat_map (fun o -> o.probes k) k.observers)
  in
  subscriber (fun k -> function
    | Attached -> attach k
    | Trace (Ev.Context_switch _) -> incr m.ctx_switches
    | Trace (Ev.Selector_flip _) -> incr m.selector_flips
    | Trace (Ev.Sweep { sites; bytes_scanned }) ->
        incr m.sweeps;
        add m.sweep_sites sites;
        add m.sweep_bytes bytes_scanned;
        add m.rewrites sites
    | Trace (Ev.Mmap { len; _ }) -> add m.mmap_bytes len
    | Trace (Ev.Munmap { len; _ }) -> add m.munmap_bytes len
    | Trace (Ev.Mprotect { len; _ }) -> add m.mprotect_bytes len
    | Trace (Ev.Jit_emit _) -> incr m.wx_flips
    | Signal_deliver _ -> incr m.signal_deliveries
    | Sigreturn _ -> incr m.sigreturns
    | Rewrite { how = Prov.Rw_lazy | Prov.Rw_manual; _ } -> incr m.rewrites
    | Syscall_enter { nr; path; _ } -> count_syscall m ~nr ~path
    | Syscall s -> observe_latency m (s.serviced - s.ts0)
    | _ -> ())

(** The cycle-clock sampling profiler, ticked per instruction. *)
let profiler (p : Profiler.t) =
  subscriber ~per_insn:true
    ~on_tick:(fun k _ n ->
      match k.cur_task with
      | Some t ->
          Profiler.tick p n ~comm:t.comm ~rip:t.ctx.Cpu.rip
            ~in_kernel:(k.in_kernel > 0) ~sig_depth:t.sig_depth
      | None -> ())
    (fun _ -> function Symbols syms -> Profiler.add_symbols p syms | _ -> ())

(** The divergence auditor.  Attaching arms the kernel's app-stream
    numbering at the auditor's count.  An application syscall records
    what the application sees in rax, takes a state-hash checkpoint
    when one is due and honors a replay-to-point stop request. *)
let auditor (a : A.t) =
  let app k { task = t; nr; path; args; ret; _ } =
    let ret =
      if ret = no_result then None else Some (Cpu.peek_reg t.ctx Isa.rax)
    in
    A.record_syscall a ~tid:t.tid ~scope:A.App ~nr ~args ~ret ~path t.ctx;
    if A.checkpoint_due a then A.take_checkpoint a ~tid:t.tid t.ctx t.mem;
    if A.should_halt a then k.halted <- true
  in
  subscriber (fun k -> function
    | Attached -> k.app_index <- A.app_count a
    | Syscall ({ scope = App; _ } as s) | Syscall_result s -> app k s
    | Syscall { scope = Mech; task = t; nr; path; args; ret; _ } ->
        A.record_syscall a ~tid:t.tid ~scope:A.Mech ~nr ~args ~ret:(Some ret)
          ~path t.ctx
    | Signal_deliver { task; signo; mech; _ } ->
        A.record_signal a ~tid:task.tid ~signo ~mech
    | Sigreturn t -> A.record_sigreturn a ~tid:t.tid
    | Trace (Ev.Context_switch { prev_tid; next_tid }) ->
        A.record_sched a ~tid:next_tid ~prev:prev_tid
    | Execve t ->
        (* a fresh address space restarts its page generations *)
        A.forget_task a t.tid
    | _ -> ())

(** The request-flow span recorder: every charge classified into a
    causal phase, request issue/claim/completion, the scheduler's
    on/off-CPU edges and the call site of each application syscall
    inside a request's window.  Attaching baselines the per-CPU
    clocks, so machine totals measure from attach time. *)
let spans (o : Obs.t) =
  let phase k =
    match k.cur_task with
    | None -> Obs.Psched
    | Some t ->
        if k.in_kernel > 0 then Obs.Pkernel k.cur_nr
        else if t.trace_path <> None || Obs.in_interp o t.ctx.Cpu.rip then
          Obs.Pinterp
        else Obs.Papp
  in
  let edge k f = Option.iter (fun t -> f t (Int64.of_int (now k))) k.cur_task in
  subscriber
    ~on_tick:(fun k start n ->
      Obs.on_charge o ~cpu:k.cur_cpu ~start:(Int64.of_int start) ~cycles:n
        ~phase:(phase k))
    ~probes:(fun _ -> spans_probes (Some o))
    (fun k -> function
      | Attached -> Obs.set_baseline o (clocks k)
      | On_cpu ->
          edge k (fun t ts -> Obs.task_on o ~cpu:k.cur_cpu ~tid:t.tid ~ts)
      | Off_cpu ->
          edge k (fun t ts ->
              let blocked = match t.state with Blocked _ -> true | _ -> false in
              Obs.task_off o ~cpu:k.cur_cpu ~tid:t.tid ~ts ~blocked)
      | Req_issue { rid; conn; ts } -> Obs.note_issue o ~rid ~conn ~ts
      | Req_claim { task; conn } ->
          Obs.claim o ~cpu:k.cur_cpu ~conn ~tid:task.tid
            ~ts:(Int64.of_int (now k)) ~ev:(next_app_index k)
      | Req_complete { rid; ts } -> Obs.complete o ~rid ~ts ~ev_hi:k.app_index
      | Req_abandon rid -> Obs.abandon o ~rid
      | Syscall { scope = App; task; path; ts0; _ } ->
          Obs.note_site o ~cpu:k.cur_cpu ~site:(recover_site task ~path)
            ~cycles:(Int64.of_int (now k - ts0))
      | _ -> ())

(** The per-call-site provenance ledger: each application syscall is
    attributed to its recovered call site with an unwound guest stack,
    its dispatch path and kernel cycles; rewrites are stamped per
    site, and /proc/<pid>/interposer lists the sites. *)
let ledger (p : Prov.t) =
  subscriber
    ~probes:(fun _ -> ledger_probes (Some p))
    ~proc:(fun _ -> Prov.proc_lines p)
    (fun k -> function
      | Syscall { scope = App; task = t; nr; path; ts0; _ } ->
          Prov.record p ~mem:t.mem ~site:(recover_site t ~path) ~nr ~path
            ~rbp:(Cpu.peek_reg_int t.ctx Isa.rbp)
            ~cycles:(Int64.of_int (now k - ts0)) ~now:(Int64.of_int (now k))
            ~ev:k.app_index
      | Rewrite { site; how } ->
          Prov.note_rewrite p ~site ~kind:how ~now:(Int64.of_int (now k))
      | Symbols syms -> Prov.add_symbols p syms
      | _ -> ())
