(** The benchmark executable: regenerates every table and figure of
    the paper's evaluation (Section V) and, separately, runs Bechamel
    microbenchmarks of the simulator's hot paths (one [Test.make] per
    paper table/figure, exercising that experiment's kernel).

    Usage:
      dune exec bench/main.exe                 (everything)
      dune exec bench/main.exe -- --only tableII --only fig4
      dune exec bench/main.exe -- --list
      dune exec bench/main.exe -- --fast       (smaller fig5 grid)
      dune exec bench/main.exe -- --json FILE  (host-side report; default
                                                bench-results.json)
      dune exec bench/main.exe -- --trace FILE (re-run the Table II
                                                configurations with the
                                                machine-wide tracer on and
                                                write one merged Chrome
                                                trace JSON, one process
                                                group per mechanism)
      dune exec bench/main.exe -- --snapshot auto
                                               (resolve the latest committed
                                                BENCH_<n>.json, write the
                                                regression snapshot and fail
                                                if the lazypoline fast path
                                                got >10% slower; an explicit
                                                path works too)
      dune exec bench/main.exe -- --chaos-off-check auto
                                               (fail unless a run with a
                                                zero-rate chaos engine
                                                attached is cycle-identical
                                                to the plain run and to the
                                                committed snapshot)
      dune exec bench/main.exe -- --no-engine-sweep
                                               (skip the blocks-on vs.
                                                blocks-off Table II engine
                                                throughput sweep)
      dune exec bench/main.exe -- --no-record-sweep
                                               (skip the audit-recorder
                                                record-overhead sweep and
                                                its observation-only gate)
      dune exec bench/main.exe -- --no-sites-sweep
                                               (skip the per-call-site
                                                provenance sweep and its
                                                unwind-success / path-purity
                                                gates)

    Besides the paper numbers (simulated cycles — independent of the
    host), every experiment reports host-side simulation throughput:
    wall-clock time, simulated instructions retired, insns/sec, and
    the decoded-instruction-cache hit/miss/invalidation counters.
    The per-experiment reports are written as JSON. *)

(* The bench JSON schema version, in one place: the emitter and every
   gate that keys on the schema share this constant, so bumping the
   version is a single edit. *)
let schema_version = "lazypoline-sim-bench/7"

(* --- Host-side throughput reporting -------------------------------- *)

type host_report = {
  hr_name : string;
  hr_wall_s : float;
  hr_insns : int;  (** simulated instructions retired *)
  hr_hits : int;
  hr_misses : int;
  hr_invalidations : int;
  hr_fallbacks : int;
}

let reports : host_report list ref = ref []

(* Run [f], attributing the global retired-instruction and icache
   counter deltas (all simulated CPUs) to experiment [name]. *)
let timed name f =
  let h0, m0, i0, f0 = Sim_cpu.Icache.totals () in
  let r0 = !Sim_cpu.Cpu.retired in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let h1, m1, i1, f1 = Sim_cpu.Icache.totals () in
  let rep =
    {
      hr_name = name;
      hr_wall_s = wall;
      hr_insns = !Sim_cpu.Cpu.retired - r0;
      hr_hits = h1 - h0;
      hr_misses = m1 - m0;
      hr_invalidations = i1 - i0;
      hr_fallbacks = f1 - f0;
    }
  in
  reports := rep :: !reports;
  Printf.printf
    "[host] %-16s %7.2fs wall  %11d insns  %7.2f M insn/s  icache \
     %d/%d/%d/%d (hit/miss/inval/fallback)\n%!"
    name wall rep.hr_insns
    (if wall > 0.0 then float_of_int rep.hr_insns /. wall /. 1e6 else 0.0)
    rep.hr_hits rep.hr_misses rep.hr_invalidations rep.hr_fallbacks

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* --- Per-mechanism simulated-cycle rows (always emitted) ----------- *)

(* One short metrics-instrumented microbenchmark run per mechanism:
   simulated cycles per iteration plus a full snapshot of the metrics
   registry, so the JSON report carries the dispatch-path split,
   rewrite counts and icache counters for every mechanism — the
   machine-readable companion of Table II.  See DESIGN.md §9 for the
   schema. *)
type mech_row = { mr_name : string; mr_cycles : float; mr_metrics : string }

let mechanism_rows () =
  let open Workloads.Microbench_prog in
  let configs =
    [
      Native; Native_sud_allow; Zpoline; Lazypoline_full; Lazypoline_noxstate;
      Lazypoline_nosud; Lazypoline_protected; Sud; Seccomp_user; Seccomp_bpf;
      Ptrace;
    ]
  in
  List.map
    (fun config ->
      let m = Sim_kernel.Kmetrics.create () in
      let cycles = run ~iters:2_000 ~metrics:m config in
      {
        mr_name = config_name config;
        mr_cycles = cycles;
        mr_metrics = Sim_kernel.Kmetrics.to_json m;
      })
    configs

(* --- Engine throughput rows (Table II sweep, blocks on vs. off) ---- *)

(* Host-side throughput of the threaded-code block engine: every
   Table II mechanism run twice over the getpid microbenchmark — once
   through the block engine, once forced onto the per-instruction
   interpreter — at an iteration count large enough that steady-state
   execution dominates image setup.  The headline is the aggregate
   speedup (total retired instructions / total wall seconds, on vs.
   off); the gate for this number lives in CI, not here, because host
   throughput is machine-dependent. *)

type engine_row = {
  er_name : string;
  er_on_insns : int;
  er_on_wall : float;
  er_off_insns : int;
  er_off_wall : float;
}

let engine_iters = 200_000
let engine_nr = 39 (* getpid: the Table II syscall *)

let engine_rows () =
  let open Workloads.Microbench_prog in
  let configs =
    [
      Native; Native_sud_allow; Zpoline; Lazypoline_full; Lazypoline_noxstate;
      Lazypoline_nosud; Lazypoline_protected; Sud; Seccomp_user; Seccomp_bpf;
      Ptrace;
    ]
  in
  let measure blocks config =
    let r0 = !Sim_cpu.Cpu.retired in
    let t0 = Unix.gettimeofday () in
    ignore (run ~iters:engine_iters ~nr:engine_nr ~blocks config);
    (Unix.gettimeofday () -. t0, !Sim_cpu.Cpu.retired - r0)
  in
  List.map
    (fun config ->
      let on_wall, on_insns = measure true config in
      let off_wall, off_insns = measure false config in
      {
        er_name = config_name config;
        er_on_insns = on_insns;
        er_on_wall = on_wall;
        er_off_insns = off_insns;
        er_off_wall = off_wall;
      })
    configs

let ips insns wall = if wall > 0.0 then float_of_int insns /. wall else 0.0

(* --- Record-overhead sweep (simtrace debug / record, DESIGN.md §13) - *)

(* The cost of recording a time-travel audit log, per mechanism: the
   getpid microbenchmark run twice — audit recorder detached, then
   attached — reporting simulated cycles per iteration and host
   wall-clock for both.  The recorder is observation-only by contract
   (DESIGN.md §9), so the simulated-cycle delta must be *exactly* zero
   and the run fails otherwise; the honest price of recording is the
   host wall-clock ratio, the number an rr-style user actually pays. *)

type record_row = {
  rr_name : string;
  rr_cycles_off : float;
  rr_cycles_on : float;
  rr_wall_off : float;
  rr_wall_on : float;
  rr_events : int;  (** audit entries recorded (app + mechanism-private) *)
}

let record_iters = 20_000

let record_rows () =
  let open Workloads.Microbench_prog in
  (* the six Table II interposition mechanisms *)
  let configs =
    [ Native; Sud; Zpoline; Lazypoline_full; Seccomp_user; Ptrace ]
  in
  List.map
    (fun config ->
      let t0 = Unix.gettimeofday () in
      let c_off = run ~iters:record_iters config in
      let w_off = Unix.gettimeofday () -. t0 in
      let a = Sim_audit.Audit.create ~checkpoint_every:64 () in
      let t1 = Unix.gettimeofday () in
      let c_on = run ~iters:record_iters ~auditor:a config in
      let w_on = Unix.gettimeofday () -. t1 in
      {
        rr_name = config_name config;
        rr_cycles_off = c_off;
        rr_cycles_on = c_on;
        rr_wall_off = w_off;
        rr_wall_on = w_on;
        rr_events = List.length (Sim_audit.Audit.entries a);
      })
    configs

let wall_ratio r =
  if r.rr_wall_off > 0.0 then r.rr_wall_on /. r.rr_wall_off else 0.0

(* --- Request-flow span sweep (simtrace spans, DESIGN.md §14) ------- *)

(* The wrk macrobench run under each of the six mechanisms with the
   span recorder attached: per-phase cycle attribution (app /
   interposer / kernel / sched / blocked) over the whole run, plus
   request-latency tail percentiles.  Gating: the phase rows must sum
   exactly to the run's total simulated cycles with the [other]
   residue below 1%, and no request may be dropped at the recorder's
   in-flight cap — silent attribution gaps would make the trajectory
   meaningless. *)

type span_row = {
  sr_mech : string;
  sr_totals : Sim_obs.Obs.totals;
  sr_p50 : float;
  sr_p90 : float;
  sr_p99 : float;
  sr_p999 : float;
  sr_max : float;
  sr_issued : int;
  sr_completed : int;
  sr_overflow : int;
  sr_evictions : int;
  sr_wall : float;
}

let spans_flavour = Workloads.Webserver.Nginx_like
let spans_size_kb = 8

let spans_rows ~conns ~requests () =
  let module D = Harness.Divergence in
  let module Obs = Sim_obs.Obs in
  let workload =
    D.Wrk { flavour = spans_flavour; size_kb = spans_size_kb; conns; requests }
  in
  List.map
    (fun mech ->
      let o = Obs.create ~ncpus:1 () in
      let t0 = Unix.gettimeofday () in
      let _a, k, _t = D.run_audited ~obs:o mech workload in
      let wall = Unix.gettimeofday () -. t0 in
      let clks = Sim_kernel.Types.clocks k in
      let tt = Obs.totals o ~clks in
      let h = Obs.latency_hist o in
      let pc p = Sim_stats.Stats.Log_hist.percentile h p in
      let row =
        {
          sr_mech = D.mech_name mech;
          sr_totals = tt;
          sr_p50 = pc 50.0;
          sr_p90 = pc 90.0;
          sr_p99 = pc 99.0;
          sr_p999 = pc 99.9;
          sr_max = Sim_stats.Stats.Log_hist.max_value h;
          sr_issued = Obs.issued o;
          sr_completed = Obs.completed_count o;
          sr_overflow = Obs.overflow o;
          sr_evictions = Obs.evictions o;
          sr_wall = wall;
        }
      in
      Printf.printf
        "[host] spans %-12s total %12Ld cyc  app %4.1f%% interp %4.1f%% \
         kernel %4.1f%% sched %4.1f%% blocked %4.1f%%  p99 %.0f  (%d/%d \
         requests, %.1fs)\n\
         %!"
        row.sr_mech tt.Obs.t_total
        (100.0 *. Int64.to_float tt.Obs.t_app /. Int64.to_float tt.Obs.t_total)
        (100.0
        *. Int64.to_float tt.Obs.t_interp
        /. Int64.to_float tt.Obs.t_total)
        (100.0
        *. Int64.to_float tt.Obs.t_kernel
        /. Int64.to_float tt.Obs.t_total)
        (100.0
        *. Int64.to_float tt.Obs.t_sched
        /. Int64.to_float tt.Obs.t_total)
        (100.0
        *. Int64.to_float tt.Obs.t_blocked
        /. Int64.to_float tt.Obs.t_total)
        row.sr_p99 row.sr_completed row.sr_issued wall;
      (* The accounting identity gates. *)
      let charged =
        List.fold_left
          (fun acc (_, c) -> Int64.add acc c)
          0L (Obs.totals_rows tt)
      in
      if charged <> tt.Obs.t_total then begin
        Printf.eprintf
          "[host] FAIL: spans %s: phase rows sum to %Ld cycles, run total is \
           %Ld — unattributed time\n\
           %!"
          row.sr_mech charged tt.Obs.t_total;
        exit 1
      end;
      if
        Int64.to_float tt.Obs.t_other
        > 0.01 *. Int64.to_float tt.Obs.t_total
      then begin
        Printf.eprintf
          "[host] FAIL: spans %s: 'other' bucket %Ld exceeds 1%% of %Ld\n%!"
          row.sr_mech tt.Obs.t_other tt.Obs.t_total;
        exit 1
      end;
      if row.sr_overflow > 0 then begin
        Printf.eprintf
          "[host] FAIL: spans %s: %d request(s) dropped at the in-flight cap\n\
           %!"
          row.sr_mech row.sr_overflow;
        exit 1
      end;
      if row.sr_completed <> requests then begin
        Printf.eprintf
          "[host] FAIL: spans %s: %d of %d requests completed\n%!" row.sr_mech
          row.sr_completed requests;
        exit 1
      end;
      row)
    Harness.Divergence.all_mechs

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
      else begin
        Printf.eprintf
          "[host] FAIL: span recorder perturbed %s: cycles %Ld (on) vs %Ld \
           (off), hash %Lx vs %Lx, audit logs %s — the recorder is \
           observation-only by contract\n\
           %!"
          (D.mech_name mech) cyc_on cyc_off h_on h_off
          (if log_on = log_off then "equal" else "differ");
        exit 1
      end)
    Harness.Divergence.all_mechs

(* --- Per-call-site provenance sweep (simtrace sites, DESIGN.md §15) - *)

(* The six mechanisms run over a call-graph-rich minicc workload with
   the provenance recorder attached: a bounded rbp-chain unwind at
   every audited syscall keys a per-site ledger of dispatch-path mix
   and rewrite provenance.  Gating: (a) at least 99% of audited
   syscalls must unwind to one or more frames (the only sanctioned
   failure is the start shim's exit, which runs with rbp = 0); (b) the
   ledger must show each mechanism's dispatch signature per site — in
   particular every lazily-rewritten lazypoline site must be fast-path
   pure after its one SIGSYS (the paper's per-site specialization
   claim, checked at site granularity rather than machine-wide). *)

type sites_row = { tr_mech : string; tr_prov : Sim_obs.Provenance.t }

(* Two leaf call sites reached through a two-deep call chain, hot
   enough that the one unresolvable exit syscall stays under 1%. *)
let sites_src =
  "long leaf_pid() { return syscall(39); }\n\
   long leaf_write(s, n) { return syscall(1, 1, s, n); }\n\
   long middle(i) { long p = leaf_pid(); leaf_write(\"tick\\n\", 5); return \
   p; }\n\
   long main() { long i = 0; while (i < 200) { middle(i); i = i + 1; } \
   return 0; }\n"

let sites_rows () =
  let module D = Harness.Divergence in
  let module P = Sim_obs.Provenance in
  let workload = D.Prog { src = sites_src; jit = false } in
  List.map
    (fun mech ->
      let p = P.create () in
      let _a, _k, _t = D.run_audited ~prov:p mech workload in
      let name = D.mech_name mech in
      let rate = P.unwind_success_rate p in
      Printf.printf
        "[host] sites %-12s %3d site(s), %3d rewritten, unwind %d/%d \
         (%.1f%%)\n\
         %!"
        name (P.distinct_sites p) (P.rewrite_count p) (P.unwind_resolved p)
        (P.unwind_attempts p) (100.0 *. rate);
      if rate < 0.99 then begin
        Printf.eprintf
          "[host] FAIL: sites %s: unwind success %.2f%% below the 99%% gate \
           (%d/%d)\n\
           %!"
          name (100.0 *. rate) (P.unwind_resolved p) (P.unwind_attempts p);
        exit 1
      end;
      let pure idx (s : P.site) =
        Array.for_all (( = ) 0)
          (Array.mapi (fun i n -> if i = idx then 0 else n) s.P.s_paths)
      in
      let check_pure idx =
        List.iter
          (fun (s : P.site) ->
            if not (pure idx s) then begin
              Printf.eprintf
                "[host] FAIL: sites %s: site 0x%x nr=%d not %s-pure\n%!" name
                s.P.s_pc s.P.s_nr P.path_names.(idx);
              exit 1
            end)
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
             (the one that triggered the rewrite), everything after it
             on the fast path — and the hot sites must show the fast
             path actually taken. *)
          let saw_fast = ref false in
          List.iter
            (fun (s : P.site) ->
              match P.rewrite_of p s.P.s_pc with
              | None -> ()
              | Some _ ->
                  if s.P.s_paths.(1) > 0 then saw_fast := true;
                  if
                    s.P.s_paths.(0) > 1
                    || s.P.s_paths.(2) > 0
                    || s.P.s_paths.(3) > 0
                    || s.P.s_paths.(4) > 0
                  then begin
                    Printf.eprintf
                      "[host] FAIL: sites lazypoline: rewritten site 0x%x \
                       nr=%d not fast-path pure after its rewrite \
                       (sud=%d fast=%d seccomp=%d ptrace=%d direct=%d)\n\
                       %!"
                      s.P.s_pc s.P.s_nr s.P.s_paths.(0) s.P.s_paths.(1)
                      s.P.s_paths.(2) s.P.s_paths.(3) s.P.s_paths.(4);
                    exit 1
                  end)
            (P.sites_sorted p);
          if not !saw_fast then begin
            Printf.eprintf
              "[host] FAIL: sites lazypoline: no rewritten site ever took \
               the fast path\n\
               %!";
            exit 1
          end);
      { tr_mech = name; tr_prov = p })
    D.all_mechs

(* --- Syscall-flow-integrity sweep (simtrace policy, DESIGN.md §16) - *)

(* The Table II microbench under the six mechanisms with the policy
   engine attached in each of its modes.  The flow graph is learned
   from a raw-dispatch run of the same loop, so the recorded call-site
   PCs are the true application PCs that every interposer's site
   recovery reproduces.  Three gates, checked per row as it is
   produced: (a) report mode is observation-only — simulated cycles
   per iteration must be bit-identical to the policy-off run; (b) the
   clean loop must produce zero violations and zero denials in every
   mode (no false positives); (c) the lazypoline enforce-mode fast
   path must stay within [policy_budget] of policy-off — the paper's
   "without compromise" claim extended to flow-integrity checking. *)

type policy_row = {
  yr_mech : string;
  yr_cycles_off : float;
  yr_cycles_report : float;
  yr_cycles_enforce : float;
  yr_checks : int;  (** dispatches checked by the enforcing engine *)
}

let policy_iters = 20_000
let policy_nr = 500
let policy_budget = 0.15

let policy_enforce_delta r =
  if r.yr_cycles_off > 0.0 then
    (r.yr_cycles_enforce -. r.yr_cycles_off) /. r.yr_cycles_off
  else 0.0

let policy_rows () =
  let open Workloads.Microbench_prog in
  let module P = Sim_policy.Policy in
  let module D = Harness.Divergence in
  let graph =
    Harness.Sfi.learn (D.Micro { iters = policy_iters; nr = policy_nr })
  in
  let configs =
    [ Native; Sud; Zpoline; Lazypoline_full; Seccomp_user; Ptrace ]
  in
  List.map
    (fun config ->
      let name = config_name config in
      let off = run ~iters:policy_iters ~nr:policy_nr config in
      let rp = P.create ~mode:P.Report graph in
      let report = run ~iters:policy_iters ~nr:policy_nr ~policy:rp config in
      let ep = P.create ~mode:P.Deny graph in
      let enforce = run ~iters:policy_iters ~nr:policy_nr ~policy:ep config in
      let row =
        {
          yr_mech = name;
          yr_cycles_off = off;
          yr_cycles_report = report;
          yr_cycles_enforce = enforce;
          yr_checks = ep.P.checks;
        }
      in
      Printf.printf
        "[host] policy %-16s %8.2f cyc/iter off, %8.2f report, %8.2f \
         enforce (%+.1f%%)  %d checks\n\
         %!"
        name off report enforce
        (100.0 *. policy_enforce_delta row)
        ep.P.checks;
      if report <> off then begin
        Printf.eprintf
          "[host] FAIL: policy %s: report mode perturbed the run: %.4f \
           cycles/iter without the engine, %.4f with — report mode is \
           observation-only by contract\n\
           %!"
          name off report;
        exit 1
      end;
      if
        P.violation_count rp > 0
        || P.violation_count ep > 0
        || ep.P.denied > 0
      then begin
        Printf.eprintf
          "[host] FAIL: policy %s: false positive on the clean loop \
           (report %d, enforce %d violations, %d denied)\n\
           %!"
          name (P.violation_count rp) (P.violation_count ep) ep.P.denied;
        exit 1
      end;
      row)
    configs

let check_policy_rows rows =
  List.iter
    (fun r ->
      if r.yr_mech = "lazypoline" then begin
        let delta = policy_enforce_delta r in
        if delta > policy_budget then begin
          Printf.eprintf
            "[host] FAIL: policy lazypoline: enforce-mode fast-path \
             overhead %.1f%% exceeds the %.0f%% budget (%.2f -> %.2f \
             cycles/iter)\n\
             %!"
            (100.0 *. delta)
            (100.0 *. policy_budget)
            r.yr_cycles_off r.yr_cycles_enforce;
          exit 1
        end
      end)
    rows

let check_record_rows rows =
  List.iter
    (fun r ->
      Printf.printf
        "[host] record %-16s %8.2f cyc/iter off, %8.2f on  wall %6.2fs -> \
         %6.2fs (%.2fx)  %d events\n\
         %!"
        r.rr_name r.rr_cycles_off r.rr_cycles_on r.rr_wall_off r.rr_wall_on
        (wall_ratio r) r.rr_events;
      if r.rr_cycles_on <> r.rr_cycles_off then begin
        Printf.eprintf
          "[host] FAIL: audit recorder perturbed %s: %.4f cycles/iter \
           without it, %.4f with — the recorder is observation-only by \
           contract\n\
           %!"
          r.rr_name r.rr_cycles_off r.rr_cycles_on;
        exit 1
      end)
    rows

let engine_aggregate rows =
  let sum f g =
    List.fold_left (fun (a, b) r -> (a + f r, b +. g r)) (0, 0.0) rows
  in
  let on_i, on_w = sum (fun r -> r.er_on_insns) (fun r -> r.er_on_wall) in
  let off_i, off_w = sum (fun r -> r.er_off_insns) (fun r -> r.er_off_wall) in
  (ips on_i on_w, ips off_i off_w)

let emit_json path mechs engine record spans sites policy =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"%s\",\n  \"experiments\": [" schema_version;
  List.iteri
    (fun idx r ->
      let ips =
        if r.hr_wall_s > 0.0 then float_of_int r.hr_insns /. r.hr_wall_s
        else 0.0
      in
      out "%s\n    { \"name\": \"%s\", \"wall_seconds\": %.6f,\n"
        (if idx = 0 then "" else ",")
        (json_escape r.hr_name) r.hr_wall_s;
      out "      \"simulated_instructions\": %d, \"insns_per_second\": %.1f,\n"
        r.hr_insns ips;
      out
        "      \"icache\": { \"hits\": %d, \"misses\": %d, \
         \"invalidations\": %d, \"fallbacks\": %d } }"
        r.hr_hits r.hr_misses r.hr_invalidations r.hr_fallbacks)
    (List.rev !reports);
  out "\n  ],\n  \"mechanisms\": [";
  List.iteri
    (fun idx m ->
      out "%s\n    { \"name\": \"%s\", \"cycles_per_iteration\": %.2f,\n"
        (if idx = 0 then "" else ",")
        (json_escape m.mr_name) m.mr_cycles;
      out "      \"metrics\": %s }" m.mr_metrics)
    mechs;
  out "\n  ]";
  (match engine with
  | [] -> ()
  | rows ->
      let on_ips, off_ips = engine_aggregate rows in
      out ",\n  \"engine\": {\n";
      out "    \"iters\": %d, \"nr\": %d,\n    \"rows\": [" engine_iters
        engine_nr;
      List.iteri
        (fun idx r ->
          let on = ips r.er_on_insns r.er_on_wall in
          let off = ips r.er_off_insns r.er_off_wall in
          out
            "%s\n      { \"name\": \"%s\", \"on_insns_per_second\": %.1f, \
             \"off_insns_per_second\": %.1f,\n\
            \        \"on_insns\": %d, \"off_insns\": %d, \"speedup\": %.2f }"
            (if idx = 0 then "" else ",")
            (json_escape r.er_name) on off r.er_on_insns r.er_off_insns
            (if off > 0.0 then on /. off else 0.0))
        rows;
      out "\n    ],\n";
      out
        "    \"aggregate\": { \"on_insns_per_second\": %.1f, \
         \"off_insns_per_second\": %.1f, \"speedup\": %.2f }\n"
        on_ips off_ips
        (if off_ips > 0.0 then on_ips /. off_ips else 0.0);
      out "  }");
  (* Last on purpose: the record rows repeat mechanism names, and the
     snapshot scanner above keys on the first "lazypoline" row (the
     mechanisms section); different field names keep it unambiguous. *)
  (match record with
  | [] -> ()
  | rows ->
      out ",\n  \"record_overhead\": {\n";
      out "    \"iters\": %d,\n    \"rows\": [" record_iters;
      List.iteri
        (fun idx r ->
          out
            "%s\n      { \"mech\": \"%s\", \"cycles_off\": %.2f, \
             \"cycles_on\": %.2f,\n\
            \        \"wall_off_s\": %.6f, \"wall_on_s\": %.6f, \
             \"wall_ratio\": %.2f, \"events\": %d }"
            (if idx = 0 then "" else ",")
            (json_escape r.rr_name) r.rr_cycles_off r.rr_cycles_on
            r.rr_wall_off r.rr_wall_on (wall_ratio r) r.rr_events)
        rows;
      out "\n    ]\n  }");
  (match spans with
  | None -> ()
  | Some (conns, requests, rows) ->
      let module Obs = Sim_obs.Obs in
      out ",\n  \"spans\": {\n";
      out
        "    \"workload\": \"wrk\", \"flavour\": \"%s\", \"size_kb\": %d, \
         \"conns\": %d, \"requests\": %d,\n\
        \    \"rows\": ["
        (Workloads.Webserver.flavour_name spans_flavour)
        spans_size_kb conns requests;
      List.iteri
        (fun idx r ->
          let tt = r.sr_totals in
          out
            "%s\n      { \"mech\": \"%s\", \"total_cycles\": %Ld,\n\
            \        \"phases\": { \"app\": %Ld, \"interposer\": %Ld, \
             \"kernel\": %Ld, \"sched\": %Ld, \"blocked\": %Ld, \"other\": \
             %Ld },\n\
            \        \"kernel_by_nr\": ["
            (if idx = 0 then "" else ",")
            (json_escape r.sr_mech) tt.Obs.t_total tt.Obs.t_app tt.Obs.t_interp
            tt.Obs.t_kernel tt.Obs.t_sched tt.Obs.t_blocked tt.Obs.t_other;
          List.iteri
            (fun j (nr, c) ->
              out "%s{ \"nr\": %d, \"name\": \"%s\", \"cycles\": %Ld }"
                (if j = 0 then "" else ", ")
                nr
                (json_escape (Sim_kernel.Defs.syscall_name nr))
                c)
            tt.Obs.t_kernel_by_nr;
          out
            "],\n\
            \        \"latency_cycles\": { \"p50\": %.0f, \"p90\": %.0f, \
             \"p99\": %.0f, \"p999\": %.0f, \"max\": %.0f },\n\
            \        \"issued\": %d, \"completed\": %d, \"overflow\": %d, \
             \"evictions\": %d, \"wall_seconds\": %.3f }"
            r.sr_p50 r.sr_p90 r.sr_p99 r.sr_p999 r.sr_max r.sr_issued
            r.sr_completed r.sr_overflow r.sr_evictions r.sr_wall)
        rows;
      out "\n    ]\n  }");
  (match sites with
  | [] -> ()
  | rows ->
      let module P = Sim_obs.Provenance in
      out ",\n  \"sites\": {\n    \"workload\": \"minicc-callgraph\",\n";
      out "    \"rows\": [";
      List.iteri
        (fun idx r ->
          let p = r.tr_prov in
          out
            "%s\n      { \"mech\": \"%s\", \"distinct_sites\": %d, \
             \"rewrites\": %d,\n\
            \        \"unwind\": { \"attempts\": %d, \"resolved\": %d, \
             \"success_rate\": %.4f, \"truncated\": %d },\n\
            \        \"sites\": ["
            (if idx = 0 then "" else ",")
            (json_escape r.tr_mech) (P.distinct_sites p) (P.rewrite_count p)
            (P.unwind_attempts p) (P.unwind_resolved p)
            (P.unwind_success_rate p) (P.unwind_truncated p);
          List.iteri
            (fun j (s : P.site) ->
              let rw =
                match P.rewrite_of p s.P.s_pc with
                | Some r ->
                    Printf.sprintf "\"%s\"" (P.rewrite_kind_name r.P.rw_kind)
                | None -> "null"
              in
              out
                "%s\n          { \"pc\": %d, \"sym\": \"%s\", \"nr\": %d, \
                 \"count\": %d, \"kernel_cycles\": %.0f, \"rewrite\": %s,\n\
                \            \"paths\": {"
                (if j = 0 then "" else ",")
                s.P.s_pc
                (json_escape (P.symbolize p s.P.s_pc))
                s.P.s_nr (P.site_count s) (P.site_cycles s) rw;
              Array.iteri
                (fun pi n ->
                  out "%s \"%s\": %d"
                    (if pi = 0 then "" else ",")
                    P.path_names.(pi) n)
                s.P.s_paths;
              out " } }")
            (P.sites_sorted p);
          out "\n        ] }")
        rows;
      out "\n    ]\n  }");
  (match policy with
  | [] -> ()
  | rows ->
      out ",\n  \"policy\": {\n";
      out "    \"iters\": %d, \"nr\": %d, \"enforce_budget\": %.2f,\n"
        policy_iters policy_nr policy_budget;
      out "    \"rows\": [";
      List.iteri
        (fun idx r ->
          out
            "%s\n      { \"mech\": \"%s\", \"cycles_off\": %.2f, \
             \"cycles_report\": %.2f, \"cycles_enforce\": %.2f,\n\
            \        \"enforce_delta\": %.4f, \"checks\": %d }"
            (if idx = 0 then "" else ",")
            (json_escape r.yr_mech) r.yr_cycles_off r.yr_cycles_report
            r.yr_cycles_enforce (policy_enforce_delta r) r.yr_checks)
        rows;
      out "\n    ]\n  }");
  out "\n}\n";
  close_out oc;
  Printf.printf "[host] wrote %s (%d experiments, %d mechanisms%s%s%s%s%s)\n%!"
    path
    (List.length !reports) (List.length mechs)
    (if engine = [] then "" else ", engine sweep")
    (if record = [] then "" else ", record-overhead sweep")
    (if spans = None then "" else ", span sweep")
    (if sites = [] then "" else ", sites sweep")
    (if policy = [] then "" else ", policy sweep")

(* --- Regression snapshot (--snapshot) ------------------------------ *)

(* CI keeps one committed snapshot (BENCH_4.json at the repo root) and
   re-runs the bench against it: if the lazypoline fast path regressed
   by more than [regression_budget] in simulated cycles per iteration
   — the headline Table II number — the run fails.  The previous value
   is recovered with a plain string scan so the comparison needs no
   JSON parser. *)

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

(* "--snapshot auto" (and "--chaos-off-check auto") resolve to the
   highest-numbered BENCH_<n>.json in the working directory, so CI
   tracks the latest committed snapshot without a hardcoded
   filename. *)
let resolve_snapshot p =
  if p <> "auto" then p
  else begin
    let num f =
      let pre = "BENCH_" and suf = ".json" in
      let lp = String.length pre and ls = String.length suf in
      if
        String.length f > lp + ls
        && String.sub f 0 lp = pre
        && String.sub f (String.length f - ls) ls = suf
      then int_of_string_opt (String.sub f lp (String.length f - lp - ls))
      else None
    in
    let best = ref None in
    Array.iter
      (fun f ->
        match num f with
        | Some n -> (
            match !best with
            | Some (m, _) when m >= n -> ()
            | _ -> best := Some (n, f))
        | None -> ())
      (Sys.readdir ".");
    match !best with
    | Some (_, f) ->
        Printf.printf "[host] snapshot: auto-resolved to %s\n%!" f;
        f
    | None ->
        failwith "--snapshot auto: no BENCH_<n>.json in the working directory"
  end

let emit_snapshot path mechs engine record spans sites policy =
  let cur =
    match List.find_opt (fun m -> m.mr_name = "lazypoline") mechs with
    | Some m -> m.mr_cycles
    | None -> failwith "snapshot: no lazypoline mechanism row"
  in
  let prev = scan_lazypoline_cycles path in
  emit_json path mechs engine record spans sites policy;
  match prev with
  | None ->
      Printf.printf
        "[host] snapshot: no previous %s; baseline recorded (lazypoline %.2f \
         cycles/iter)\n%!"
        path cur
  | Some p when p > 0.0 ->
      let ratio = (cur -. p) /. p in
      Printf.printf
        "[host] snapshot: lazypoline fast path %.2f -> %.2f cycles/iter \
         (%+.1f%%, budget +%.0f%%)\n%!"
        p cur (100.0 *. ratio)
        (100.0 *. regression_budget);
      if ratio > regression_budget then begin
        Printf.eprintf
          "[host] FAIL: lazypoline fast-path regression %.1f%% exceeds the \
           %.0f%% budget\n%!"
          (100.0 *. ratio)
          (100.0 *. regression_budget);
        exit 1
      end
  | Some p ->
      Printf.printf
        "[host] snapshot: previous value %.2f unusable; baseline rewritten\n%!"
        p

(* --- Chaos-off identity (--chaos-off-check) ------------------------ *)

(* The chaos engine must be free when disabled: a microbenchmark run
   with a zero-rate engine attached has to land on bit-identical
   simulated cycles — equal to the plain run of this build *and* to
   the lazypoline value in the committed snapshot (which predates the
   engine).  Cycle counts are exact, so unlike the regression gate
   above this is an equality check at the snapshot's printed
   precision, not a budget. *)
let check_chaos_off path mechs =
  let plain =
    match List.find_opt (fun m -> m.mr_name = "lazypoline") mechs with
    | Some m -> m.mr_cycles
    | None -> failwith "chaos-off check: no lazypoline mechanism row"
  in
  let ch =
    Sim_chaos.Chaos.fuzz ~rates:Sim_chaos.Chaos.zero_rates ~seed:1L ()
  in
  let off =
    Workloads.Microbench_prog.run ~iters:2_000 ~chaos:ch
      Workloads.Microbench_prog.Lazypoline_full
  in
  let fired = Sim_chaos.Chaos.count ch in
  let r2 x = Float.round (x *. 100.0) /. 100.0 in
  let snap = scan_lazypoline_cycles path in
  let ok_plain = off = plain && fired = 0 in
  let ok_snap = match snap with None -> true | Some p -> r2 off = r2 p in
  Printf.printf
    "[host] chaos-off: lazypoline %.2f cycles/iter with zero-rate engine \
     (plain %.2f, snapshot %s, %d injection(s))\n%!"
    off plain
    (match snap with Some p -> Printf.sprintf "%.2f" p | None -> "absent")
    fired;
  if ok_plain && ok_snap then
    Printf.printf "[host] chaos-off identity OK: bit-identical cycles\n%!"
  else begin
    Printf.eprintf
      "[host] FAIL: zero-rate chaos engine perturbed the run (%s)\n%!"
      (if not ok_plain then
         Printf.sprintf "off %.4f vs plain %.4f, %d injection(s)" off plain
           fired
       else
         Printf.sprintf "off %.2f vs snapshot %s" (r2 off)
           (match snap with Some p -> Printf.sprintf "%.2f" p | None -> "?"));
    exit 1
  end

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

(* --- Traced Table II re-run (--trace) ------------------------------ *)

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
  let json =
    Sim_trace.Export.chrome_json_groups ~name_of_nr:Sim_kernel.Defs.syscall_name
      groups
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "[host] wrote %s (%d mechanism groups)\n%!" path
    (List.length groups)

(* --- Bechamel: simulator hot-path microbenchmarks ------------------ *)

let bechamel_tests () =
  let open Bechamel in
  (* One Test.make per paper table/figure, benchmarking the hot kernel
     of that experiment at a tiny scale. *)
  let t_table1 =
    Test.make ~name:"tableI_bpf_filter_run"
      (Staged.stage (fun () ->
           let d =
             {
               Sim_kernel.Bpf.nr = 39;
               arch = Sim_kernel.Bpf.audit_arch_x86_64;
               instruction_pointer = 0x400000;
               args = Array.make 6 0L;
             }
           in
           ignore (Sim_kernel.Bpf.run Baselines.Seccomp_bpf.inspect_all d)))
  in
  let micro_iter config =
    Staged.stage (fun () ->
        ignore (Workloads.Microbench_prog.run ~iters:50 config))
  in
  let t_table2 =
    Test.make ~name:"tableII_microbench_50_iters_lazypoline"
      (micro_iter Workloads.Microbench_prog.Lazypoline_full)
  in
  let t_fig4 =
    Test.make ~name:"fig4_microbench_50_iters_zpoline"
      (micro_iter Workloads.Microbench_prog.Zpoline)
  in
  let t_table3 =
    Test.make ~name:"tableIII_pin_run_pwd"
      (Staged.stage (fun () ->
           ignore
             (Workloads.Coreutils.run_under_pin
                ~distro:Workloads.Coreutils.Glibc_2_31 "pwd")))
  in
  let t_exh =
    Test.make ~name:"sectionVA_minicc_compile"
      (Staged.stage (fun () ->
           ignore (Minicc.Codegen.compile "long main() { return syscall(39); }")))
  in
  (* The CPU hot loop with and without the decoded-instruction cache:
     the gap between these two is the raw win of skipping per-step
     fetch/decode. *)
  let cpu_step_loop ~name ~icache =
    let m = Sim_mem.Mem.create () in
    let blob =
      Sim_asm.Asm.assemble ~base:0x1000
        (Sim_asm.Asm.
           [
             Label "top"; mov_ri Sim_isa.Isa.rax 1;
             add_ri Sim_isa.Isa.rax 2; Jmp_l "top";
           ])
    in
    Sim_mem.Mem.map m ~addr:0x1000 ~len:4096 ~perm:Sim_mem.Mem.rx;
    Sim_mem.Mem.poke_bytes m 0x1000 blob.Sim_asm.Asm.bytes;
    let c = Sim_cpu.Cpu.create () in
    Test.make ~name
      (Staged.stage (fun () ->
           c.Sim_cpu.Cpu.rip <- 0x1000;
           for _ = 1 to 1000 do
             ignore (Sim_cpu.Cpu.step ?icache c m)
           done))
  in
  let t_fig5 =
    cpu_step_loop ~name:"fig5_cpu_step_1000_insns_uncached" ~icache:None
  in
  let t_fig5_ic =
    cpu_step_loop ~name:"fig5_cpu_step_1000_insns_icache"
      ~icache:(Some (Sim_cpu.Icache.create ()))
  in
  [ t_table1; t_table2; t_fig4; t_table3; t_exh; t_fig5; t_fig5_ic ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline (String.make 72 '-');
  print_endline "Bechamel: simulator hot-path microbenchmarks (ns per run)";
  print_endline (String.make 72 '-');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:(Some 100) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ x ] -> Printf.printf "%-44s %12.1f ns/run\n%!" name x
          | _ -> Printf.printf "%-44s (no estimate)\n%!" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ])
       (bechamel_tests ()))

let () =
  let args = Array.to_list Sys.argv in
  let only =
    List.filteri (fun i _ -> i > 0) args
    |> List.fold_left
         (fun (acc, expect) a ->
           if expect then (a :: acc, false)
           else if a = "--only" then (acc, true)
           else (acc, false))
         ([], false)
    |> fst
  in
  let fast = List.mem "--fast" args in
  if List.mem "--list" args then begin
    List.iter
      (fun (name, desc, _) -> Printf.printf "%-16s %s\n" name desc)
      experiments;
    Printf.printf "%-16s %s\n" "bechamel" "simulator hot-path microbenchmarks";
    exit 0
  end;
  let json_path =
    let rec find = function
      | "--json" :: p :: _ -> p
      | _ :: rest -> find rest
      | [] -> "bench-results.json"
    in
    find args
  in
  let trace_path =
    let rec find = function
      | "--trace" :: p :: _ -> Some p
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let snapshot_path =
    let rec find = function
      | "--snapshot" :: p :: _ -> Some p
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let chaos_off_path =
    let rec find = function
      | "--chaos-off-check" :: p :: _ -> Some p
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let want name = only = [] || List.mem name only in
  List.iter
    (fun (name, _, f) ->
      if want name then
        timed name (if name = "fig5" && fast then fig5_fast else f))
    experiments;
  if want "bechamel" then run_bechamel ();
  (match trace_path with Some p -> emit_trace p | None -> ());
  (* Always written, even for --only runs with no host reports: the
     per-mechanism cycle rows and metric snapshots are cheap and make
     every invocation machine-readable.  The rows are computed once and
     shared with the regression snapshot. *)
  let mechs = mechanism_rows () in
  (* The engine sweep (blocks on vs. off across the Table II configs)
     is a few seconds of host time, so it is skippable for quick local
     iterations but on by default: every committed BENCH_<n>.json must
     carry the engine-on/engine-off throughput numbers. *)
  let engine =
    if List.mem "--no-engine-sweep" args then []
    else begin
      let rows = engine_rows () in
      let on_ips, off_ips = engine_aggregate rows in
      Printf.printf
        "[host] engine sweep: %.1f M insn/s (blocks) vs %.1f M insn/s \
         (interp) — %.2fx across %d Table II configs\n%!"
        (on_ips /. 1e6) (off_ips /. 1e6)
        (if off_ips > 0.0 then on_ips /. off_ips else 0.0)
        (List.length rows);
      rows
    end
  in
  (* Record-overhead sweep: audit recorder off vs. on across the six
     Table II mechanisms.  Gating — a non-zero simulated-cycle delta
     breaks the observation-only contract and fails the run — so it is
     on by default, skippable with --no-record-sweep for quick local
     iterations; committed BENCH_<n>.json snapshots must carry it. *)
  let record =
    if List.mem "--no-record-sweep" args then []
    else begin
      let rows = record_rows () in
      check_record_rows rows;
      rows
    end
  in
  (* Request-flow span sweep: the wrk macrobench under all six
     mechanisms with the span recorder attached (simtrace spans at
     bench scale).  Gating — phase rows must sum exactly to the run's
     total simulated cycles with <1% unattributed, and no request may
     fall out of the recorder — so it is on by default like the other
     sweeps, downscaled by --fast and skippable with
     --no-spans-sweep.  --conns / --requests override the scale. *)
  let int_flag name default =
    let rec find = function
      | a :: v :: _ when a = name -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> n
          | _ -> failwith (name ^ ": positive integer expected"))
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let spans =
    if List.mem "--no-spans-sweep" args then None
    else begin
      let conns = int_flag "--conns" (if fast then 16 else 100) in
      let requests = int_flag "--requests" (if fast then 2_000 else 100_000) in
      Some (conns, requests, spans_rows ~conns ~requests ())
    end
  in
  (* Per-call-site provenance sweep: six mechanisms over the
     call-graph minicc workload with the provenance recorder on.
     Gating — 99% unwind success and per-site dispatch purity
     (lazypoline rewritten sites fast-path-only after their one
     SIGSYS) — so on by default, skippable with --no-sites-sweep. *)
  let sites =
    if List.mem "--no-sites-sweep" args then [] else sites_rows ()
  in
  (* Syscall-flow-integrity sweep: the microbench under the six Table
     II mechanisms with the policy engine off / report / enforce.
     Gating — report mode must be bit-identical to off, the clean loop
     must see zero denials, and the lazypoline enforce fast path must
     stay within the policy budget — so on by default, skippable with
     --no-policy-sweep. *)
  let policy =
    if List.mem "--no-policy-sweep" args then []
    else begin
      let rows = policy_rows () in
      check_policy_rows rows;
      rows
    end
  in
  emit_json json_path mechs engine record spans sites policy;
  (match chaos_off_path with
  | Some p -> check_chaos_off (resolve_snapshot p) mechs
  | None -> ());
  if List.mem "--spans-off-check" args then check_spans_off ();
  match snapshot_path with
  | Some p ->
      emit_snapshot (resolve_snapshot p) mechs engine record spans sites policy
  | None -> ()
