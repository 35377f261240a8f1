(** The benchmark executable: regenerates every table and figure of
    the paper's evaluation (Section V) and runs the simulated-cycle
    gates.  Everything it reports is a simulated count (cycles,
    retired instructions, icache hits, audit events), deterministic
    and independent of the host; host time is measured by
    [perfbench/].

    Usage:
      dune exec bench/main.exe                 (experiments + sweeps)
      dune exec bench/main.exe -- --only tableII --only fig4
      dune exec bench/main.exe -- --list       (every --only name)
      dune exec bench/main.exe -- --fast       (smaller fig5 grid and
                                                spans sweep)
      dune exec bench/main.exe -- --json FILE  (report; default
                                                bench-results.json)
      dune exec bench/main.exe -- --trace FILE (re-run the Table II
                                                configurations with the
                                                tracer on and write one
                                                merged Chrome trace)
      dune exec bench/main.exe -- --snapshot auto
                                               (fail if the lazypoline
                                                fast path is >10% slower
                                                than the latest committed
                                                BENCH_<n>.json; the file
                                                is only read)
      dune exec bench/main.exe -- --only chaos-off --snapshot auto

    With no [--only], the run covers the eight experiments and the
    record, spans, sites and policy sweeps; the spans-off and
    chaos-off identity checks run only when named.  The per-mechanism
    cycle rows are computed on every run. *)

module J = Sim_artifact.Json

let schema_version = "lazypoline-sim-bench/8"

(* Report a failed gate and exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "[host] FAIL: %s\n%!" msg;
      exit 1)
    fmt

let i64 n = J.Int (Int64.to_int n)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* The six interposition mechanisms of Table II, and the full set of
   Table II configurations (ablations included). *)
let six_configs =
  Workloads.Microbench_prog.
    [ Native; Sud; Zpoline; Lazypoline_full; Seccomp_user; Ptrace ]

let table2_configs =
  Workloads.Microbench_prog.
    [
      Native; Native_sud_allow; Zpoline; Lazypoline_full; Lazypoline_noxstate;
      Lazypoline_nosud; Lazypoline_protected; Sud; Seccomp_user; Seccomp_bpf;
      Ptrace;
    ]

(* --- Paper experiments ---------------------------------------------- *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ( "tableI",
      "characteristics matrix of the interposition mechanisms",
      fun () -> ignore (Harness.Experiments.table1 ()) );
    ( "tableII",
      "microbenchmark overheads (syscall 500)",
      fun () -> ignore (Harness.Experiments.table2 ()) );
    ( "fig4",
      "lazypoline overhead breakdown",
      fun () -> ignore (Harness.Experiments.fig4 ()) );
    ( "tableIII",
      "coreutils register-preservation expectations (Pin tool)",
      fun () -> ignore (Harness.Experiments.table3 ()) );
    ( "exhaustiveness",
      "Section V-A: JIT-compiled syscalls under each interposer",
      fun () -> ignore (Harness.Experiments.exhaustiveness ()) );
    ( "listing1",
      "xstate clobbering demo (Listing 1)",
      fun () -> ignore (Harness.Experiments.listing1 ()) );
    ( "fig5",
      "web server macrobenchmarks",
      fun () -> ignore (Harness.Experiments.fig5 ()) );
    ( "ablation",
      "selector-only SUD vs classic deployment; lazy-rewrite amortisation",
      fun () -> ignore (Harness.Experiments.ablation ()) );
  ]

let fig5_fast () =
  ignore
    (Harness.Experiments.fig5 ~sizes:[ 1; 64 ] ~worker_counts:[ 1 ]
       ~flavours:[ Workloads.Webserver.Nginx_like ] ())

(* Run experiment [name], attributing the global retired-instruction
   and icache counter deltas (all simulated CPUs) to it. *)
let run_experiment name f =
  let h0, m0, i0, f0 = Sim_cpu.Icache.totals () in
  let r0 = !Sim_cpu.Cpu.retired in
  f ();
  let h1, m1, i1, f1 = Sim_cpu.Icache.totals () in
  let insns = !Sim_cpu.Cpu.retired - r0 in
  Printf.printf
    "[host] %-16s %11d insns  icache %d/%d/%d/%d (hit/miss/inval/fallback)\n%!"
    name insns (h1 - h0) (m1 - m0) (i1 - i0) (f1 - f0);
  J.Object
    [
      ("name", J.String name); ("simulated_instructions", J.Int insns);
      ( "icache",
        J.Object
          [
            ("hits", J.Int (h1 - h0)); ("misses", J.Int (m1 - m0));
            ("invalidations", J.Int (i1 - i0)); ("fallbacks", J.Int (f1 - f0));
          ] );
    ]

(* --- Per-mechanism simulated-cycle rows (every run) ----------------- *)

(* One short metrics-instrumented microbenchmark run per Table II
   configuration: simulated cycles per iteration plus a snapshot of
   the metrics registry (dispatch-path split, rewrite counts, icache
   counters).  The lazypoline row is what the snapshot and chaos-off
   gates compare. *)
let mechanism_rows () =
  List.map
    (fun config ->
      let m = Sim_kernel.Kmetrics.create () in
      let cycles =
        Workloads.Microbench_prog.run ~iters:2_000 ~metrics:m config
      in
      let metrics = Sim_metrics.Metrics.json m.Sim_kernel.Kmetrics.registry in
      (Workloads.Microbench_prog.config_name config, cycles, metrics))
    table2_configs

let mechanisms_json rows =
  J.List
    (List.map
       (fun (name, cycles, metrics) ->
         J.Object
           [
             ("name", J.String name);
             ("cycles_per_iteration", J.Float (2, cycles));
             ("metrics", metrics);
           ])
       rows)

let lazypoline_cycles rows =
  match List.find_opt (fun (name, _, _) -> name = "lazypoline") rows with
  | Some (_, cycles, _) -> cycles
  | None -> failwith "no lazypoline mechanism row"

(* --- Record sweep (simtrace record, DESIGN.md §13) ------------------ *)

(* The getpid microbenchmark per mechanism, audit recorder detached
   then attached.  The recorder is observation-only by contract
   (DESIGN.md §9), so simulated cycles must not move at all. *)
let record_iters = 20_000

let record_section () =
  let module Mb = Workloads.Microbench_prog in
  let row config =
    let name = Mb.config_name config in
    let off = Mb.run ~iters:record_iters config in
    let a = Sim_audit.Audit.create ~checkpoint_every:64 () in
    let on = Mb.run ~iters:record_iters ~auditor:a config in
    let events = List.length (Sim_audit.Audit.entries a) in
    Printf.printf
      "[host] record %-16s %8.2f cyc/iter off, %8.2f on  %d events\n%!" name
      off on events;
    if on <> off then
      fail
        "audit recorder perturbed %s: %.4f cycles/iter without it, %.4f with \
         — the recorder is observation-only by contract"
        name off on;
    J.Object
      [
        ("mech", J.String name); ("cycles_off", J.Float (2, off));
        ("cycles_on", J.Float (2, on)); ("events", J.Int events);
      ]
  in
  J.Object
    [
      ("iters", J.Int record_iters);
      ("rows", J.List (List.map row six_configs));
    ]

(* --- Request-flow span sweep (simtrace spans, DESIGN.md §14) -------- *)

(* The wrk macrobench under each of the six mechanisms with the span
   recorder attached: per-phase cycle attribution plus request-latency
   percentiles.  Gating: the phase rows must sum exactly to the run's
   total simulated cycles with the [other] residue below 1%, and every
   request must complete without being dropped at the recorder's
   in-flight cap. *)

let spans_flavour = Workloads.Webserver.Nginx_like
let spans_size_kb = 8

let spans_section ~fast () =
  let module D = Harness.Divergence in
  let module Obs = Sim_obs.Obs in
  let conns, requests = if fast then (16, 2_000) else (100, 100_000) in
  let workload =
    D.Wrk { flavour = spans_flavour; size_kb = spans_size_kb; conns; requests }
  in
  let row mech =
    let name = D.mech_name mech in
    let o = Obs.create ~ncpus:1 () in
    let _a, k, _t = D.run_audited ~obs:o mech workload in
    let tt = Obs.totals o ~clks:(Sim_kernel.Types.clocks k) in
    let h = Obs.latency_hist o in
    let pc p = Sim_stats.Stats.Log_hist.percentile h p in
    let completed = Obs.completed_count o in
    let pct c = 100.0 *. Int64.to_float c /. Int64.to_float tt.Obs.t_total in
    Printf.printf
      "[host] spans %-12s total %12Ld cyc  app %4.1f%% interp %4.1f%% kernel \
       %4.1f%% sched %4.1f%% blocked %4.1f%%  p99 %.0f  (%d/%d requests)\n\
       %!"
      name tt.Obs.t_total (pct tt.Obs.t_app) (pct tt.Obs.t_interp)
      (pct tt.Obs.t_kernel) (pct tt.Obs.t_sched) (pct tt.Obs.t_blocked)
      (pc 99.0) completed (Obs.issued o);
    let phases = Obs.totals_rows tt in
    let charged =
      List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L phases
    in
    if charged <> tt.Obs.t_total then
      fail
        "spans %s: phase rows sum to %Ld cycles, run total is %Ld — \
         unattributed time"
        name charged tt.Obs.t_total;
    if Int64.to_float tt.Obs.t_other > 0.01 *. Int64.to_float tt.Obs.t_total
    then
      fail "spans %s: 'other' bucket %Ld exceeds 1%% of %Ld" name tt.Obs.t_other
        tt.Obs.t_total;
    if Obs.overflow o > 0 then
      fail "spans %s: %d request(s) dropped at the in-flight cap" name
        (Obs.overflow o);
    if completed <> requests then
      fail "spans %s: %d of %d requests completed" name completed requests;
    J.Object
      [
        ("mech", J.String name); ("total_cycles", i64 tt.Obs.t_total);
        ("phases", J.Object (List.map (fun (p, c) -> (p, i64 c)) phases));
        ( "kernel_by_nr",
          J.List
            (List.map
               (fun (nr, c) ->
                 J.Object
                   [
                     ("nr", J.Int nr);
                     ("name", J.String (Sim_kernel.Defs.syscall_name nr));
                     ("cycles", i64 c);
                   ])
               tt.Obs.t_kernel_by_nr) );
        ( "latency_cycles",
          J.Object
            [
              ("p50", J.Float (0, pc 50.0)); ("p90", J.Float (0, pc 90.0));
              ("p99", J.Float (0, pc 99.0)); ("p999", J.Float (0, pc 99.9));
              ("max", J.Float (0, Sim_stats.Stats.Log_hist.max_value h));
            ] );
        ("issued", J.Int (Obs.issued o)); ("completed", J.Int completed);
        ("overflow", J.Int (Obs.overflow o));
        ("evictions", J.Int (Obs.evictions o));
      ]
  in
  J.Object
    [
      ("workload", J.String "wrk");
      ("flavour", J.String (Workloads.Webserver.flavour_name spans_flavour));
      ("size_kb", J.Int spans_size_kb); ("conns", J.Int conns);
      ("requests", J.Int requests);
      ("rows", J.List (List.map row D.all_mechs));
    ]

(* The span recorder must be free when detached and observation-only
   when attached: a wrk run with the recorder on has to produce a
   bit-identical audit log (streams, checkpoint hashes, final state
   hash) and the exact same simulated cycle count as the same run
   without it, under every mechanism. *)
let check_spans_off () =
  let module D = Harness.Divergence in
  let workload =
    D.Wrk { flavour = spans_flavour; size_kb = 4; conns = 8; requests = 300 }
  in
  List.iter
    (fun mech ->
      let run obs =
        let a, k, _ = D.run_audited ?obs mech workload in
        let h = Sim_kernel.Kernel.audit_final_hash k a in
        (D.log_string ~final_hash:h a, Sim_kernel.Types.global_time k, h)
      in
      let o = Sim_obs.Obs.create ~ncpus:1 () in
      let log_on, cyc_on, h_on = run (Some o) in
      let log_off, cyc_off, h_off = run None in
      if log_on = log_off && cyc_on = cyc_off then
        Printf.printf
          "[host] spans-off %-12s OK: %Ld cycles, state hash %Lx, identical \
           with the recorder attached\n\
           %!"
          (D.mech_name mech) cyc_on h_on
      else
        fail
          "span recorder perturbed %s: cycles %Ld (on) vs %Ld (off), hash %Lx \
           vs %Lx, audit logs %s — the recorder is observation-only by \
           contract"
          (D.mech_name mech) cyc_on cyc_off h_on h_off
          (if log_on = log_off then "equal" else "differ"))
    D.all_mechs

(* --- Per-call-site provenance sweep (simtrace sites, DESIGN.md §15) - *)

(* The six mechanisms over a call-graph-rich minicc workload with the
   provenance recorder attached.  Gating: (a) at least 99% of audited
   syscalls must unwind to one or more frames (the only sanctioned
   failure is the start shim's exit, which runs with rbp = 0); (b) the
   ledger must show each mechanism's dispatch signature per site — in
   particular every lazily-rewritten lazypoline site must be fast-path
   pure after its one SIGSYS (the paper's per-site specialization
   claim, checked at site granularity rather than machine-wide). *)

(* Two leaf call sites reached through a two-deep call chain, hot
   enough that the one unresolvable exit syscall stays under 1%. *)
let sites_src =
  "long leaf_pid() { return syscall(39); }\n\
   long leaf_write(s, n) { return syscall(1, 1, s, n); }\n\
   long middle(i) { long p = leaf_pid(); leaf_write(\"tick\\n\", 5); return \
   p; }\n\
   long main() { long i = 0; while (i < 200) { middle(i); i = i + 1; } \
   return 0; }\n"

let sites_section () =
  let module D = Harness.Divergence in
  let module P = Sim_obs.Provenance in
  let workload = D.Prog { src = sites_src; jit = false } in
  let row mech =
    let p = P.create () in
    let _a, _k, _t = D.run_audited ~prov:p mech workload in
    let name = D.mech_name mech in
    let rate = P.unwind_success_rate p in
    Printf.printf
      "[host] sites %-12s %3d site(s), %3d rewritten, unwind %d/%d (%.1f%%)\n%!"
      name (P.distinct_sites p) (P.rewrite_count p) (P.unwind_resolved p)
      (P.unwind_attempts p) (100.0 *. rate);
    if rate < 0.99 then
      fail "sites %s: unwind success %.2f%% below the 99%% gate (%d/%d)" name
        (100.0 *. rate) (P.unwind_resolved p) (P.unwind_attempts p);
    let check_pure idx =
      List.iter
        (fun (s : P.site) ->
          let stray i n = i <> idx && n <> 0 in
          if Array.exists Fun.id (Array.mapi stray s.P.s_paths) then
            fail "sites %s: site 0x%x nr=%d not %s-pure" name s.P.s_pc s.P.s_nr
              P.path_names.(idx))
        (P.sites_sorted p)
    in
    (match mech with
    | D.Raw -> check_pure 4 (* direct *)
    | D.Sud -> check_pure 0 (* sud_sigsys *)
    | D.Zpoline -> check_pure 1 (* the load-time sweep leaves no slow path *)
    | D.Seccomp -> check_pure 2
    | D.Ptrace -> check_pure 3
    | D.Lazypoline_m ->
        (* Every rewritten site: exactly one SIGSYS-mediated dispatch
           (the one that triggered the rewrite), everything after it on
           the fast path — and the hot sites must show the fast path
           actually taken. *)
        let rewritten =
          List.filter
            (fun (s : P.site) -> P.rewrite_of p s.P.s_pc <> None)
            (P.sites_sorted p)
        in
        List.iter
          (fun (s : P.site) ->
            let n = s.P.s_paths in
            if n.(0) > 1 || n.(2) > 0 || n.(3) > 0 || n.(4) > 0 then
              fail
                "sites lazypoline: rewritten site 0x%x nr=%d not fast-path \
                 pure after its rewrite (sud=%d fast=%d seccomp=%d ptrace=%d \
                 direct=%d)"
                s.P.s_pc s.P.s_nr n.(0) n.(1) n.(2) n.(3) n.(4))
          rewritten;
        let fast (s : P.site) = s.P.s_paths.(1) > 0 in
        if not (List.exists fast rewritten) then
          fail "sites lazypoline: no rewritten site ever took the fast path");
    J.Object [ ("mech", J.String name); ("ledger", P.json p) ]
  in
  J.Object
    [
      ("workload", J.String "minicc-callgraph");
      ("rows", J.List (List.map row D.all_mechs));
    ]

(* --- Syscall-flow-integrity sweep (simtrace policy, DESIGN.md §16) - *)

(* The Table II microbench under the six mechanisms with the policy
   engine attached in each of its modes.  The flow graph is learned
   from a raw-dispatch run of the same loop, so the recorded call-site
   PCs are the true application PCs that every interposer's site
   recovery reproduces.  Three gates, checked per row: (a) report mode
   is observation-only — simulated cycles per iteration must be
   bit-identical to the policy-off run; (b) the clean loop must
   produce zero violations and zero denials in every mode (no false
   positives); (c) the lazypoline enforce-mode fast path must stay
   within [policy_budget] of policy-off — the paper's "without
   compromise" claim extended to flow-integrity checking. *)

let policy_iters = 20_000
let policy_nr = 500
let policy_budget = 0.15

let policy_section () =
  let module Mb = Workloads.Microbench_prog in
  let module P = Sim_policy.Policy in
  let module D = Harness.Divergence in
  let graph =
    Harness.Sfi.learn (D.Micro { iters = policy_iters; nr = policy_nr })
  in
  let row config =
    let name = Mb.config_name config in
    let run ?policy () =
      Mb.run ~iters:policy_iters ~nr:policy_nr ?policy config
    in
    let off = run () in
    let rp = P.create ~mode:P.Report graph in
    let report = run ~policy:rp () in
    let ep = P.create ~mode:P.Deny graph in
    let enforce = run ~policy:ep () in
    let delta = if off > 0.0 then (enforce -. off) /. off else 0.0 in
    Printf.printf
      "[host] policy %-16s %8.2f cyc/iter off, %8.2f report, %8.2f enforce \
       (%+.1f%%)  %d checks\n\
       %!"
      name off report enforce (100.0 *. delta) ep.P.checks;
    if report <> off then
      fail
        "policy %s: report mode perturbed the run: %.4f cycles/iter without \
         the engine, %.4f with — report mode is observation-only by contract"
        name off report;
    if P.violation_count rp > 0 || P.violation_count ep > 0 || ep.P.denied > 0
    then
      fail
        "policy %s: false positive on the clean loop (report %d, enforce %d \
         violations, %d denied)"
        name (P.violation_count rp) (P.violation_count ep) ep.P.denied;
    if name = "lazypoline" && delta > policy_budget then
      fail
        "policy lazypoline: enforce-mode fast-path overhead %.1f%% exceeds the \
         %.0f%% budget (%.2f -> %.2f cycles/iter)"
        (100.0 *. delta) (100.0 *. policy_budget) off enforce;
    J.Object
      [
        ("mech", J.String name); ("cycles_off", J.Float (2, off));
        ("cycles_report", J.Float (2, report));
        ("cycles_enforce", J.Float (2, enforce));
        ("enforce_delta", J.Float (4, delta)); ("checks", J.Int ep.P.checks);
      ]
  in
  J.Object
    [
      ("iters", J.Int policy_iters); ("nr", J.Int policy_nr);
      ("enforce_budget", J.Float (2, policy_budget));
      ("rows", J.List (List.map row six_configs));
    ]

(* --- Regression snapshot (--snapshot) ------------------------------- *)

(* CI re-runs the bench against the latest committed BENCH_<n>.json:
   if the lazypoline fast path regressed by more than
   [regression_budget] in simulated cycles per iteration — the
   headline Table II number — the run fails.  The snapshot is only
   read.  The previous value is recovered with a plain string scan,
   which reads every schema version so far. *)

let regression_budget = 0.10

let find_sub s needle from =
  let n = String.length needle and len = String.length s in
  let rec go i =
    if i + n > len then None
    else if String.sub s i n = needle then Some (i + n)
    else go (i + 1)
  in
  go from

(* The ablation rows ("lazypoline w/o xstate", ...) share the prefix,
   so match up to the closing quote of the exact name. *)
let scan_lazypoline_cycles path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match find_sub s "\"name\": \"lazypoline\"," 0 with
    | None -> None
    | Some i -> (
        match find_sub s "\"cycles_per_iteration\":" i with
        | None -> None
        | Some j ->
            let k = ref j in
            while
              !k < String.length s
              &&
              match s.[!k] with
              | '0' .. '9' | '.' | '-' | 'e' | '+' | ' ' -> true
              | _ -> false
            do
              incr k
            done;
            float_of_string_opt (String.trim (String.sub s j (!k - j))))
  end

(* "auto" resolves to the highest-numbered BENCH_<n>.json in the
   working directory, so CI tracks the latest committed snapshot
   without a hardcoded filename. *)
let resolve_snapshot p =
  if p <> "auto" then p
  else begin
    let num f =
      if
        String.starts_with ~prefix:"BENCH_" f
        && Filename.check_suffix f ".json"
      then int_of_string_opt (String.sub f 6 (String.length f - 11))
      else None
    in
    let best =
      Array.fold_left
        (fun best f ->
          match (num f, best) with
          | Some n, Some (m, _) when m >= n -> best
          | Some n, _ -> Some (n, f)
          | None, _ -> best)
        None (Sys.readdir ".")
    in
    match best with
    | Some (_, f) ->
        Printf.printf "[host] snapshot: auto-resolved to %s\n%!" f;
        f
    | None -> fail "--snapshot auto: no BENCH_<n>.json in the working directory"
  end

(* The resolved snapshot path and its lazypoline cycles per iteration. *)
let read_snapshot p =
  let path = resolve_snapshot p in
  match scan_lazypoline_cycles path with
  | Some v when v > 0.0 -> (path, v)
  | _ -> fail "snapshot %s: no lazypoline cycles_per_iteration to compare" path

let check_snapshot mechs (_, prev) =
  let cur = lazypoline_cycles mechs in
  let ratio = (cur -. prev) /. prev in
  Printf.printf
    "[host] snapshot: lazypoline fast path %.2f -> %.2f cycles/iter (%+.1f%%, \
     budget +%.0f%%)\n\
     %!"
    prev cur (100.0 *. ratio)
    (100.0 *. regression_budget);
  if ratio > regression_budget then
    fail "lazypoline fast-path regression %.1f%% exceeds the %.0f%% budget"
      (100.0 *. ratio)
      (100.0 *. regression_budget)

(* --- Chaos-off identity (--only chaos-off) -------------------------- *)

(* The chaos engine must be free when disabled: a microbenchmark run
   with a zero-rate engine attached has to land on bit-identical
   simulated cycles — equal to the plain run of this build *and*, when
   --snapshot names one, to the lazypoline value in the snapshot
   (which predates the engine).  Cycle counts are exact, so unlike the
   regression gate this is an equality check at the snapshot's printed
   precision, not a budget. *)
let check_chaos_off snapshot mechs =
  let plain = lazypoline_cycles mechs in
  let ch = Sim_chaos.Chaos.fuzz ~rates:Sim_chaos.Chaos.zero_rates ~seed:1L () in
  let off =
    Workloads.Microbench_prog.run ~iters:2_000 ~chaos:ch
      Workloads.Microbench_prog.Lazypoline_full
  in
  let fired = Sim_chaos.Chaos.count ch in
  let r2 x = Float.round (x *. 100.0) /. 100.0 in
  let snap = Option.map snd snapshot in
  let show = function Some p -> Printf.sprintf "%.2f" p | None -> "absent" in
  Printf.printf
    "[host] chaos-off: lazypoline %.2f cycles/iter with zero-rate engine \
     (plain %.2f, snapshot %s, %d injection(s))\n\
     %!"
    off plain (show snap) fired;
  if off <> plain || fired > 0 then
    fail
      "zero-rate chaos engine perturbed the run (off %.4f vs plain %.4f, %d \
       injection(s))"
      off plain fired;
  (match snap with
  | Some p when r2 off <> r2 p ->
      fail
        "zero-rate chaos engine perturbed the run (off %.2f vs snapshot %.2f)"
        (r2 off) p
  | _ -> ());
  Printf.printf "[host] chaos-off identity OK: bit-identical cycles\n%!"

(* --- Traced Table II re-run (--trace) ------------------------------- *)

(* Re-run the Table II mechanisms with the event tracer attached and
   export one merged Chrome trace so the dispatch paths of the
   different interposers can be compared side by side in Perfetto.
   Fewer iterations than the real benchmark: the point is the
   timeline, not the steady-state cycle count. *)
let emit_trace path =
  let open Workloads.Microbench_prog in
  let configs =
    [ Zpoline; Lazypoline_noxstate; Lazypoline_full; Sud; Native_sud_allow ]
  in
  let groups =
    List.map
      (fun config ->
        let tr = Sim_trace.Tracer.create ~ncpus:1 () in
        ignore (run ~iters:2_000 ~tracer:tr config);
        (config_name config, Sim_trace.Tracer.events tr))
      configs
  in
  write_file path
    (Sim_trace.Export.chrome_json_groups
       ~name_of_nr:Sim_kernel.Defs.syscall_name groups);
  Printf.printf "[host] wrote %s (%d mechanism groups)\n%!" path
    (List.length groups)

(* --- Command line ---------------------------------------------------- *)

(* The gates [--only] can name besides the experiments; the last two
   run only when named. *)
let gates =
  [
    ("record", "audit recorder on vs. off: simulated cycles must not move");
    ("spans", "wrk request-flow spans: exact phase sums, no lost requests");
    ("sites", "call-site provenance: unwind success, per-site path purity");
    ("policy", "syscall-flow policy: report identity, enforce overhead budget");
    ("spans-off", "span recorder attached vs. detached: identical audit logs");
    ("chaos-off", "zero-rate chaos engine: identical cycles, and to snapshot");
  ]

let opt_in = [ "spans-off"; "chaos-off" ]

let main only list fast json_path trace_path snapshot =
  if list then
    List.iter
      (fun (name, desc) -> Printf.printf "%-16s %s\n" name desc)
      (List.map (fun (name, desc, _) -> (name, desc)) experiments @ gates)
  else begin
    let want name =
      if only = [] then not (List.mem name opt_in) else List.mem name only
    in
    let snapshot = Option.map read_snapshot snapshot in
    let ran =
      List.filter_map
        (fun (name, _, f) ->
          let f = if name = "fig5" && fast then fig5_fast else f in
          if want name then Some (run_experiment name f) else None)
        experiments
    in
    Option.iter emit_trace trace_path;
    let mechs = mechanism_rows () in
    let section name f = if want name then Some (f ()) else None in
    let record = section "record" record_section in
    let spans = section "spans" (spans_section ~fast) in
    let sites = section "sites" sites_section in
    let policy = section "policy" policy_section in
    let sections =
      List.filter_map
        (fun (key, v) -> Option.map (fun v -> (key, v)) v)
        [
          ("experiments", if ran = [] then None else Some (J.List ran));
          ("mechanisms", Some (mechanisms_json mechs));
          ("record_overhead", record); ("spans", spans); ("sites", sites);
          ("policy", policy);
        ]
    in
    write_file json_path
      (J.to_string (J.Object (("schema", J.String schema_version) :: sections))
      ^ "\n");
    Printf.printf "[host] wrote %s (%s)\n%!" json_path
      (String.concat ", " (List.map fst sections));
    if want "chaos-off" then check_chaos_off snapshot mechs;
    if want "spans-off" then check_spans_off ();
    Option.iter (check_snapshot mechs) snapshot
  end

let () =
  let open Cmdliner in
  let names =
    List.map (fun (name, _, _) -> name) experiments @ List.map fst gates
  in
  let only =
    Arg.(
      value
      & opt_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [ "only" ] ~docv:"NAME"
          ~doc:
            "Run only $(docv) (repeatable): an experiment or a gate, see \
             $(b,--list).  Without it, every experiment and the record, \
             spans, sites and policy sweeps run.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the $(b,--only) names.")
  in
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:"Smaller fig5 grid and spans sweep (16 conns, 2,000 requests).")
  in
  let json =
    Arg.(
      value
      & opt string "bench-results.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Re-run the Table II configurations with the tracer attached and \
             write one merged Chrome trace to $(docv).")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE|auto"
          ~doc:
            "Fail if lazypoline's cycles per iteration exceed the snapshot's \
             by more than 10%.  FILE is a bench report; $(b,auto) picks the \
             highest-numbered BENCH_<n>.json in the working directory.  The \
             snapshot is only read; $(b,chaos-off) also compares against \
             it.")
  in
  let term = Term.(const main $ only $ list $ fast $ json $ trace $ snapshot) in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench"
             ~doc:"Regenerate the paper's evaluation and run the cycle gates")
          term))
