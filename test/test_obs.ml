(** Tests for the request-flow span recorder (lib/obs, layer 4 of the
    observability stack): the request lifecycle and per-phase
    accounting in isolation, the machine-wide attribution identity on
    a real wrk run, the top-k exemplar reservoir, the sidecar
    round-trip, and the headline property — attaching the recorder
    never changes a run (simulated cycles, register/memory state via
    the audit checkpoint hashes, the full serialized audit stream)
    under any of the six mechanisms, interpreter or JIT. *)

open Sim_kernel
module Obs = Sim_obs.Obs
module D = Harness.Divergence

(* --- request lifecycle + per-request accounting -------------------- *)

let test_lifecycle () =
  let o = Obs.create ~ncpus:1 () in
  Obs.note_issue o ~rid:1 ~conn:7 ~ts:100L;
  Alcotest.(check int) "issued" 1 (Obs.issued o);
  Alcotest.(check int) "nothing completed yet" 0 (Obs.completed_count o);
  (* the kernel reads the request 50 cycles later: queue wait *)
  Obs.claim o ~cpu:0 ~conn:7 ~tid:5 ~ts:150L ~ev:12;
  Obs.on_charge o ~cpu:0 ~start:150L ~cycles:40 ~phase:Obs.Papp;
  Obs.on_charge o ~cpu:0 ~start:190L ~cycles:10 ~phase:(Obs.Pkernel 0);
  Obs.task_off o ~cpu:0 ~tid:5 ~ts:200L ~blocked:true;
  Obs.task_on o ~cpu:0 ~tid:5 ~ts:230L;
  Obs.on_charge o ~cpu:0 ~start:230L ~cycles:20 ~phase:Obs.Pinterp;
  Obs.complete o ~rid:1 ~ts:250L ~ev_hi:19;
  Alcotest.(check int) "completed" 1 (Obs.completed_count o);
  match Obs.completed o with
  | [ r ] ->
      Alcotest.(check int) "audit window low" 12 r.Obs.ev_lo;
      Alcotest.(check int) "audit window high" 19 r.Obs.ev_hi;
      Alcotest.(check int64) "latency is complete - issue" 150L
        (Obs.latency r);
      let phases = Obs.req_phases r in
      let get n = List.assoc n phases in
      Alcotest.(check int64) "app cycles" 40L (get "app");
      Alcotest.(check int64) "interposer cycles" 20L (get "interposer");
      Alcotest.(check int64) "kernel cycles" 10L (get "kernel");
      Alcotest.(check int64) "blocked cycles" 30L (get "blocked");
      Alcotest.(check int64) "queue wait charged to sched" 50L (get "sched");
      (* every cycle of the latency is attributed to some phase *)
      Alcotest.(check int64) "phases cover the whole latency" (Obs.latency r)
        (List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L phases);
      (* the causal track: monotone, non-overlapping, expected order *)
      let segs = Obs.segments r in
      Alcotest.(check (list string))
        "segment phase order"
        [ "sched"; "app"; "kernel"; "blocked"; "interposer" ]
        (List.map (fun s -> Obs.phase_name s.Obs.s_phase) segs);
      ignore
        (List.fold_left
           (fun prev_end s ->
             Alcotest.(check bool) "segment starts after predecessor" true
               (s.Obs.s_start >= prev_end);
             Alcotest.(check bool) "segment non-empty" true
               (s.Obs.s_end > s.Obs.s_start);
             s.Obs.s_end)
           0L segs)
  | l -> Alcotest.failf "expected one completed request, got %d"
           (List.length l)

let test_reservoir_topk () =
  let o = Obs.create ~topk:2 ~ncpus:1 () in
  List.iteri
    (fun i lat ->
      let rid = i + 1 in
      Obs.note_issue o ~rid ~conn:rid ~ts:0L;
      Obs.complete o ~rid ~ts:(Int64.of_int lat) ~ev_hi:(-1))
    [ 10; 30; 20; 40 ];
  Alcotest.(check (list int))
    "slowest two retained, slowest first" [ 4; 2 ]
    (List.map (fun r -> r.Obs.rid) (Obs.exemplars o));
  Alcotest.(check int) "evictions counted" 2 (Obs.evictions o);
  Alcotest.(check bool) "evicted exemplar unfindable" true
    (Obs.find_exemplar o 1 = None);
  match Obs.find_exemplar o 4 with
  | Some r -> Alcotest.(check int64) "slowest latency" 40L (Obs.latency r)
  | None -> Alcotest.fail "slowest exemplar missing"

let test_inflight_overflow () =
  let o = Obs.create ~max_inflight:2 ~ncpus:1 () in
  for rid = 1 to 3 do
    Obs.note_issue o ~rid ~conn:rid ~ts:0L
  done;
  Alcotest.(check int) "all issues counted" 3 (Obs.issued o);
  Alcotest.(check int) "third issue dropped at the cap" 1 (Obs.overflow o);
  (* the dropped request completes unnoticed, without corrupting books *)
  Obs.complete o ~rid:3 ~ts:50L ~ev_hi:(-1);
  Alcotest.(check int) "dropped request not counted complete" 0
    (Obs.completed_count o)

let test_totals_identity () =
  let o = Obs.create ~ncpus:2 () in
  Obs.set_baseline o [| 100L; 100L |];
  Obs.on_charge o ~cpu:0 ~start:100L ~cycles:300 ~phase:Obs.Papp;
  Obs.on_charge o ~cpu:0 ~start:400L ~cycles:100 ~phase:(Obs.Pkernel 1);
  Obs.on_charge o ~cpu:1 ~start:100L ~cycles:50 ~phase:Obs.Pinterp;
  Obs.on_charge o ~cpu:1 ~start:150L ~cycles:25 ~phase:Obs.Psched;
  (* cpu0 advanced 500 (all charged), cpu1 advanced 200 with only 75
     charged: the 125 uncharged cycles are the idle/blocked bucket *)
  let tt = Obs.totals o ~clks:[| 600L; 300L |] in
  Alcotest.(check int64) "total clock advance" 700L tt.Obs.t_total;
  Alcotest.(check int64) "app" 300L tt.Obs.t_app;
  Alcotest.(check int64) "kernel" 100L tt.Obs.t_kernel;
  Alcotest.(check int64) "interposer" 50L tt.Obs.t_interp;
  Alcotest.(check int64) "sched" 25L tt.Obs.t_sched;
  Alcotest.(check int64) "uncharged advance is blocked/idle" 225L
    tt.Obs.t_blocked;
  Alcotest.(check int64) "no accounting slack" 0L tt.Obs.t_other;
  Alcotest.(check int64) "rows sum to the total"
    tt.Obs.t_total
    (List.fold_left
       (fun acc (_, c) -> Int64.add acc c)
       0L (Obs.totals_rows tt));
  Alcotest.(check (list (pair int int64)))
    "kernel split by nr" [ (1, 100L) ] tt.Obs.t_kernel_by_nr

let test_sidecar_roundtrip () =
  let o = Obs.create ~topk:4 ~ncpus:1 () in
  List.iter
    (fun (rid, issue, complete, lo, hi) ->
      Obs.note_issue o ~rid ~conn:rid ~ts:issue;
      Obs.claim o ~cpu:0 ~conn:rid ~tid:1 ~ts:issue ~ev:lo;
      Obs.complete o ~rid ~ts:complete ~ev_hi:hi)
    [ (1, 10L, 110L, 3, 9); (2, 20L, 520L, 12, 30) ];
  let text = Obs.sidecar o in
  let rows = Obs.parse_sidecar text in
  Alcotest.(check int) "row per exemplar" 2 (List.length rows);
  (match rows with
  | slow :: _ ->
      Alcotest.(check int) "slowest first" 2 slow.Obs.x_rid;
      Alcotest.(check int64) "issue survives" 20L slow.Obs.x_issue;
      Alcotest.(check int64) "complete survives" 520L slow.Obs.x_complete;
      Alcotest.(check int) "ev_lo survives" 12 slow.Obs.x_ev_lo;
      Alcotest.(check int) "ev_hi survives" 30 slow.Obs.x_ev_hi;
      Alcotest.(check int64) "latency survives" 500L slow.Obs.x_latency
  | [] -> Alcotest.fail "no rows");
  (* a second round-trip is the identity *)
  Alcotest.(check bool) "parse is stable" true
    (Obs.parse_sidecar text = rows);
  match Obs.parse_sidecar "% not-a-spans-file\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

(* --- machine-wide attribution on a real wrk run -------------------- *)

let wrk ~conns ~requests =
  D.Wrk
    { flavour = Workloads.Webserver.Nginx_like; size_kb = 2; conns; requests }

let test_wrk_attribution () =
  let o = Obs.create ~ncpus:1 () in
  let _a, k, _t =
    D.run_audited ~obs:o D.Lazypoline_m (wrk ~conns:4 ~requests:120)
  in
  Alcotest.(check int) "every request issued" 120 (Obs.issued o);
  Alcotest.(check int) "every request completed" 120 (Obs.completed_count o);
  Alcotest.(check int) "no in-flight overflow" 0 (Obs.overflow o);
  let clks = Types.clocks k in
  let tt = Obs.totals o ~clks in
  Alcotest.(check bool) "ran" true (tt.Obs.t_total > 0L);
  Alcotest.(check int64) "phase rows sum to total cycles" tt.Obs.t_total
    (List.fold_left
       (fun acc (_, c) -> Int64.add acc c)
       0L (Obs.totals_rows tt));
  Alcotest.(check int64) "no unattributed time" 0L tt.Obs.t_other;
  Alcotest.(check bool) "app time attributed" true (tt.Obs.t_app > 0L);
  Alcotest.(check bool) "lazypoline interposer time attributed" true
    (tt.Obs.t_interp > 0L);
  Alcotest.(check bool) "kernel time attributed" true (tt.Obs.t_kernel > 0L);
  (* per-syscall kernel rows also add up *)
  Alcotest.(check int64) "kernel-by-nr sums to kernel" tt.Obs.t_kernel
    (List.fold_left
       (fun acc (_, c) -> Int64.add acc c)
       0L tt.Obs.t_kernel_by_nr);
  (* exemplars carry usable audit windows, slowest first *)
  let ex = Obs.exemplars o in
  Alcotest.(check bool) "reservoir populated" true (ex <> []);
  ignore
    (List.fold_left
       (fun prev r ->
         Alcotest.(check bool) "claimed: audit window valid" true
           (r.Obs.ev_lo >= 0 && r.Obs.ev_lo <= r.Obs.ev_hi);
         Alcotest.(check bool) "latency positive" true (Obs.latency r > 0L);
         Alcotest.(check bool) "sorted slowest first" true
           (Obs.latency r <= prev);
         Obs.latency r)
       Int64.max_int ex);
  Alcotest.(check int) "latency histogram saw every request" 120
    (Sim_stats.Stats.Log_hist.count (Obs.latency_hist o))

(* --- observation-only: the recorder never changes the run ---------- *)

let prog_src iters =
  Printf.sprintf
    {|
long main() {
  long i = 0;
  long acc = 0;
  while (i < %d) {
    acc = acc + syscall(39);
    syscall(1, 1, "x", 1);
    i = i + 1;
  }
  return acc & 7;
}
|}
    iters

(* The audit log string embeds the serialized app stream, the periodic
   checkpoint state hashes (registers + memory) and the final state
   hash, so string equality is machine-state equality. *)
let fingerprint ?obs ?prov mech workload =
  let a, k, _t = D.run_audited ?obs ?prov mech workload in
  ( D.log_string ~final_hash:(Kernel.audit_final_hash k a) a,
    Types.global_time k )

let prop_spans_observation_only =
  QCheck.Test.make ~count:12
    ~name:"span recorder never changes a run (six mechanisms, ±jit)"
    (QCheck.make
       ~print:(fun (mi, jit, iters) ->
         Printf.sprintf "%s jit=%b iters=%d"
           (D.mech_name (List.nth D.all_mechs mi))
           jit iters)
       QCheck.Gen.(
         triple (int_range 0 (List.length D.all_mechs - 1)) bool
           (int_range 3 20)))
    (fun (mi, jit, iters) ->
      let mech = List.nth D.all_mechs mi in
      let workload = D.Prog { src = prog_src iters; jit } in
      let log_off, cycles_off = fingerprint mech workload in
      let log_on, cycles_on =
        fingerprint ~obs:(Obs.create ~ncpus:1 ()) mech workload
      in
      log_on = log_off && cycles_on = cycles_off)

(* --- syscall provenance: call-site ledger + unwinder --------------- *)

module P = Sim_obs.Provenance

(* Three-deep call chain above the only syscall: exercises the rbp
   unwinder through real minicc frames. *)
let callgraph_src =
  {|
long f3() { return syscall(39); }
long f2() { return f3(); }
long f1() { return f2(); }
long main() {
  long i = 0;
  while (i < 6) { f1(); i = i + 1; }
  return 0;
}
|}

let run_prov ?prov mech =
  let p = match prov with Some p -> p | None -> P.create () in
  let _a, _k, _t =
    D.run_audited ~prov:p mech (D.Prog { src = callgraph_src; jit = false })
  in
  p

let getpid_site p =
  match List.find_opt (fun s -> s.P.s_nr = 39) (P.sites_sorted p) with
  | Some s -> s
  | None -> Alcotest.fail "no getpid call site in the ledger"

let test_prov_lazypoline_ledger () =
  let p = run_prov D.Lazypoline_m in
  (* the getpid site in f3 plus the exit site in the start shim *)
  Alcotest.(check bool) "at least two sites" true (P.distinct_sites p >= 2);
  let s = getpid_site p in
  Alcotest.(check int) "one dispatch per iteration" 6 (P.site_count s);
  (* lazy rewriting's per-site signature: first hit via SIGSYS
     (path 0), the rest on the rewritten fast path (path 1) *)
  Alcotest.(check int) "exactly one SIGSYS dispatch" 1 s.P.s_paths.(0);
  Alcotest.(check int) "remaining hits on the fast path" 5 s.P.s_paths.(1);
  (match P.rewrite_of p s.P.s_pc with
  | Some r ->
      Alcotest.(check string) "rewrite stamped lazy" "lazy"
        (P.rewrite_kind_name r.P.rw_kind)
  | None -> Alcotest.fail "hot site not marked rewritten");
  (* symbolization: the minicc symbol table resolves the site *)
  Alcotest.(check bool) "site symbolizes into f3" true
    (let sym = P.symbolize p s.P.s_pc in
     String.length sym >= 5 && String.sub sym 0 5 = "fn_f3");
  Alcotest.(check bool) "kernel cycles attributed" true (P.site_cycles s > 0.0);
  Alcotest.(check bool) "first_ev recorded" true (s.P.s_first_ev >= 0);
  (* unwinder health: everything resolves except the start shim's
     exit (rbp = 0 by design), and nothing hits the depth cap *)
  Alcotest.(check bool) "success rate >= 6/7" true
    (P.unwind_success_rate p >= 6.0 /. 7.0);
  Alcotest.(check int) "no truncation at default depth" 0
    (P.unwind_truncated p);
  (* the folded flamegraph carries the full f1 -> f2 -> f3 chain *)
  let folded = P.folded ~comm:"t" p in
  let has sub =
    let n = String.length sub and len = String.length folded in
    let rec go i = i + n <= len && (String.sub folded i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "folded has caller f1" true (has ";fn_f1");
  Alcotest.(check bool) "folded has caller f2" true (has ";fn_f2");
  Alcotest.(check bool) "folded has leaf f3" true (has ";fn_f3")

let test_prov_unwind_depth_cap () =
  let p = P.create ~max_depth:2 () in
  let (_ : P.t) = run_prov ~prov:p D.Raw in
  (* the 4-deep chain (f2, f1, main, start above the leaf) cannot fit
     in 2 frames: the walker must stop at the cap, not fault *)
  Alcotest.(check bool) "deep stacks truncated" true
    (P.unwind_truncated p > 0);
  (* capped stacks still count as resolved and still emit folded
     lines of at most comm + 2 callers + leaf *)
  let s = getpid_site p in
  Alcotest.(check int) "every dispatch recorded" 6 (P.site_count s);
  String.split_on_char '\n' (P.folded ~comm:"t" p)
  |> List.iter (fun line ->
         if line <> "" then
           Alcotest.(check bool)
             (Printf.sprintf "folded line bounded by depth cap: %s" line)
             true
             (List.length (String.split_on_char ';' line) <= 4))

let test_prov_zpoline_sweep () =
  let p = run_prov D.Zpoline in
  Alcotest.(check bool) "sites observed" true (P.distinct_sites p >= 2);
  (* the load-time sweep rewrote every site before first execution:
     every observed dispatch takes the fast path, and every observed
     site is already stamped "sweep" *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "site 0x%x fast-path only" s.P.s_pc)
        (P.site_count s) s.P.s_paths.(1);
      match P.rewrite_of p s.P.s_pc with
      | Some r ->
          Alcotest.(check string) "stamped by the sweep" "sweep"
            (P.rewrite_kind_name r.P.rw_kind)
      | None -> Alcotest.failf "site 0x%x not marked rewritten" s.P.s_pc)
    (P.sites_sorted p)

let test_sidecar_site_roundtrip () =
  (* /2 appends the hottest call site of each exemplar's window *)
  let o = Obs.create ~topk:4 ~ncpus:1 () in
  Obs.note_issue o ~rid:1 ~conn:1 ~ts:10L;
  Obs.claim o ~cpu:0 ~conn:1 ~tid:1 ~ts:10L ~ev:0;
  Obs.note_site o ~cpu:0 ~site:0x400062 ~cycles:50L;
  Obs.note_site o ~cpu:0 ~site:0x400099 ~cycles:900L;
  Obs.complete o ~rid:1 ~ts:110L ~ev_hi:4;
  (match Obs.parse_sidecar (Obs.sidecar o) with
  | [ row ] ->
      Alcotest.(check int) "hottest site survives the round-trip" 0x400099
        row.Obs.x_site
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  (* a site-less /1 sidecar still parses, with the site unknown *)
  match
    Obs.parse_sidecar "% simtrace-spans/1\nR 1 10 110 3 9 100\n"
  with
  | [ row ] ->
      Alcotest.(check int) "v1 row accepted" 1 row.Obs.x_rid;
      Alcotest.(check int) "v1 site unknown" (-1) row.Obs.x_site
  | rows -> Alcotest.failf "expected one v1 row, got %d" (List.length rows)

let prop_prov_observation_only =
  QCheck.Test.make ~count:12
    ~name:"provenance ledger never changes a run (six mechanisms, ±jit)"
    (QCheck.make
       ~print:(fun (mi, jit, iters) ->
         Printf.sprintf "%s jit=%b iters=%d"
           (D.mech_name (List.nth D.all_mechs mi))
           jit iters)
       QCheck.Gen.(
         triple (int_range 0 (List.length D.all_mechs - 1)) bool
           (int_range 3 20)))
    (fun (mi, jit, iters) ->
      let mech = List.nth D.all_mechs mi in
      let workload = D.Prog { src = prog_src iters; jit } in
      let log_off, cycles_off = fingerprint mech workload in
      let log_on, cycles_on = fingerprint ~prov:(P.create ()) mech workload in
      log_on = log_off && cycles_on = cycles_off)

let test_spans_off_identity_wrk () =
  (* Same property on the macrobench path (wrk + webserver + epoll),
     one mechanism; the bench sweeps all six at scale. *)
  let workload = wrk ~conns:2 ~requests:60 in
  let log_off, cycles_off = fingerprint D.Zpoline workload in
  let log_on, cycles_on =
    fingerprint ~obs:(Obs.create ~ncpus:1 ()) D.Zpoline workload
  in
  Alcotest.(check int64) "cycles identical" cycles_off cycles_on;
  Alcotest.(check string) "audit log identical" log_off log_on

let tests =
  [
    Alcotest.test_case "request lifecycle + phase accounting" `Quick
      test_lifecycle;
    Alcotest.test_case "top-k exemplar reservoir" `Quick test_reservoir_topk;
    Alcotest.test_case "in-flight overflow accounting" `Quick
      test_inflight_overflow;
    Alcotest.test_case "totals: attribution identity" `Quick
      test_totals_identity;
    Alcotest.test_case "sidecar round-trip" `Quick test_sidecar_roundtrip;
    Alcotest.test_case "wrk run: full attribution" `Quick
      test_wrk_attribution;
    QCheck_alcotest.to_alcotest prop_spans_observation_only;
    Alcotest.test_case "wrk run: recorder off-identity" `Quick
      test_spans_off_identity_wrk;
    Alcotest.test_case "provenance: lazypoline per-site ledger" `Quick
      test_prov_lazypoline_ledger;
    Alcotest.test_case "provenance: unwinder depth cap" `Quick
      test_prov_unwind_depth_cap;
    Alcotest.test_case "provenance: zpoline sweep stamps" `Quick
      test_prov_zpoline_sweep;
    Alcotest.test_case "sidecar /2: hottest-site round-trip" `Quick
      test_sidecar_site_roundtrip;
    QCheck_alcotest.to_alcotest prop_prov_observation_only;
  ]
