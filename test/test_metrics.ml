(** The metrics registry: unit tests for [Sim_metrics.Metrics], the
    kernel wiring through [Kmetrics], and the observation-only
    contract — a run with metrics and the sampling profiler attached
    is cycle- and state-identical to an unobserved run (qcheck
    property over the microbenchmark configurations, plus a full
    register/memory comparison on a compiled C program). *)

open Sim_kernel
module M = Sim_metrics.Metrics
module Profiler = Sim_metrics.Profiler
module Ev = Sim_trace.Event

(* --- registry units ------------------------------------------------ *)

let test_counter_idempotent () =
  let r = M.create () in
  let c1 = M.counter r ~help:"h" "requests_total" in
  incr c1;
  let c2 = M.counter r "requests_total" in
  Alcotest.(check bool) "same cell" true (c1 == c2);
  incr c2;
  Alcotest.(check (option int)) "one cell, two bumps" (Some 2)
    (M.find r "requests_total")

let test_labels_distinguish () =
  let r = M.create () in
  let a = M.counter r ~labels:[ ("path", "fast") ] "dispatches" in
  let b = M.counter r ~labels:[ ("path", "slow") ] "dispatches" in
  Alcotest.(check bool) "distinct cells" false (a == b);
  a := 3;
  b := 5;
  Alcotest.(check (option int)) "fast" (Some 3)
    (M.find r ~labels:[ ("path", "fast") ] "dispatches");
  Alcotest.(check (option int)) "slow" (Some 5)
    (M.find r ~labels:[ ("path", "slow") ] "dispatches");
  (* label order must not matter for identity *)
  let a' = M.counter r ~labels:[ ("path", "fast") ] "dispatches" in
  Alcotest.(check bool) "order-insensitive key" true (a == a')

let test_probe_replaces () =
  let r = M.create () in
  M.probe r "live_value" (fun () -> 1);
  Alcotest.(check (option int)) "first thunk" (Some 1) (M.find r "live_value");
  (* re-registration swaps the thunk: re-attaching a registry to a
     fresh kernel must not keep scraping the old one *)
  M.probe r "live_value" (fun () -> 42);
  Alcotest.(check (option int)) "second thunk" (Some 42)
    (M.find r "live_value")

let test_histogram_buckets () =
  let r = M.create () in
  let h = M.histogram r "latency" in
  List.iter (M.observe h) [ 1; 2; 3; 100; 100_000 ];
  Alcotest.(check int) "count" 5 h.M.h_count;
  Alcotest.(check int) "sum" 100_106 h.M.h_sum;
  (* v <= 2^i: 1 -> bucket 0, 2 -> 1, 3 -> 2, 100 -> 7, 100000 -> 17 *)
  Alcotest.(check int) "bucket 0" 1 h.M.h_buckets.(0);
  Alcotest.(check int) "bucket 1" 1 h.M.h_buckets.(1);
  Alcotest.(check int) "bucket 2" 1 h.M.h_buckets.(2);
  Alcotest.(check int) "bucket 7" 1 h.M.h_buckets.(7);
  Alcotest.(check int) "bucket 17" 1 h.M.h_buckets.(17)

let test_prometheus_shape () =
  let r = M.create () in
  let c = M.counter r ~help:"things done" "sim_things_total" in
  c := 7;
  let h = M.histogram r "sim_lat" in
  M.observe h 3;
  let text = M.prometheus r in
  let has needle =
    let nl = String.length needle and l = String.length text in
    let rec go i = i + nl <= l && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HELP line" true (has "# HELP sim_things_total things done");
  Alcotest.(check bool) "TYPE line" true (has "# TYPE sim_things_total counter");
  Alcotest.(check bool) "value line" true (has "sim_things_total 7");
  Alcotest.(check bool) "histogram bucket" true (has "sim_lat_bucket{le=\"4\"} 1");
  Alcotest.(check bool) "+Inf bucket" true (has "sim_lat_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "sum" true (has "sim_lat_sum 3");
  Alcotest.(check bool) "count" true (has "sim_lat_count 1")

let test_json_shape () =
  let r = M.create () in
  (M.counter r ~labels:[ ("k", "v") ] "c_total") := 9;
  let j = M.to_json r in
  Alcotest.(check bool) "array" true (j.[0] = '[' && j.[String.length j - 1] = ']');
  let has needle =
    let nl = String.length needle and l = String.length j in
    let rec go i = i + nl <= l && (String.sub j i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "name field" true (has "\"name\": \"c_total\"");
  Alcotest.(check bool) "labels object" true (has "\"k\": \"v\"");
  Alcotest.(check bool) "value field" true (has "\"value\": 9")

(* --- kernel wiring ------------------------------------------------- *)

let run_metered ?(mech = `Lazy) src =
  let k = Kernel.create () in
  let m = Kmetrics.create () in
  Kernel.attach_metrics k m;
  let t = Kernel.spawn k (Minicc.Codegen.compile_to_image src) in
  (match mech with
  | `Native -> ()
  | `Lazy -> ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ())));
  Buffer.clear Kernel.console;
  Alcotest.(check bool) "terminated" true
    (Kernel.run_until_exit ~max_slices:600_000 k);
  (k, t, m)

let src_loop =
  "long main() { long acc = 0; for (long i = 0; i < 5; i = i + 1) { acc = \
   acc + syscall(39); } return acc & 1; }"

let test_kernel_counts () =
  let _k, _t, m = run_metered ~mech:`Native src_loop in
  let v name = Option.value ~default:0 (M.find m.Kmetrics.registry name) in
  Alcotest.(check bool) "syscalls counted" true (v "sim_syscalls_total" >= 6);
  (* 5x getpid + exit; all direct without an interposer *)
  Alcotest.(check int) "all direct" (v "sim_syscalls_total")
    (Kmetrics.path_count m Ev.Direct);
  Alcotest.(check bool) "per-nr row for getpid" true
    (Option.value ~default:0
       (M.find m.Kmetrics.registry
          ~labels:[ ("nr", "39"); ("name", "getpid") ]
          "sim_syscalls_by_nr_total")
    >= 5);
  Alcotest.(check bool) "latency histogram populated" true
    (m.Kmetrics.syscall_cycles.M.h_count >= 6);
  Alcotest.(check bool) "cycles probe scrapes" true (v "sim_cycles" > 0)

let test_kernel_dispatch_split () =
  let _k, _t, m = run_metered ~mech:`Lazy src_loop in
  (* first getpid faults into the SUD slow path and is rewritten;
     later iterations take the fast path *)
  Alcotest.(check bool) "slow path hit" true (Kmetrics.slow_hits m >= 1);
  Alcotest.(check bool) "fast path hits" true (Kmetrics.fast_hits m >= 2);
  Alcotest.(check bool) "rewrite counted" true
    (Option.value ~default:0 (M.find m.Kmetrics.registry "sim_rewrites_total")
    >= 1);
  Alcotest.(check bool) "selector flips counted" true
    (Option.value ~default:0
       (M.find m.Kmetrics.registry "sim_sud_selector_flips_total")
    >= 1)

let test_sweep_metrics () =
  let k = Kernel.create () in
  let m = Kmetrics.create () in
  Kernel.attach_metrics k m;
  let t =
    Kernel.spawn k
      (Minicc.Codegen.compile_to_image "long main() { return syscall(39) > 0; }")
  in
  ignore (Baselines.Zpoline.install k t (Lazypoline.Hook.dummy ()));
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  let v name = Option.value ~default:0 (M.find m.Kmetrics.registry name) in
  Alcotest.(check bool) "one sweep" true (v "sim_rewrite_sweeps_total" >= 1);
  Alcotest.(check bool) "sites found" true
    (v "sim_rewrite_sweep_sites_total" >= 1);
  Alcotest.(check bool) "bytes scanned" true
    (v "sim_rewrite_sweep_bytes_total" > 0)

(* --- observation-only: cycle identity over the microbench ---------- *)

let micro_configs =
  Workloads.Microbench_prog.
    [
      Native; Native_sud_allow; Zpoline; Lazypoline_full; Lazypoline_noxstate;
      Lazypoline_nosud; Lazypoline_protected; Sud; Seccomp_user; Seccomp_bpf;
      Ptrace;
    ]

let prop_observers_cycle_identical =
  QCheck.Test.make ~count:(List.length micro_configs)
    ~name:"metrics+profiler attached: cycles identical to unobserved run"
    (QCheck.make
       ~print:(fun i ->
         Workloads.Microbench_prog.config_name
           (List.nth micro_configs (i mod List.length micro_configs)))
       QCheck.Gen.(int_range 0 (List.length micro_configs - 1)))
    (fun i ->
      let config = List.nth micro_configs i in
      let plain = Workloads.Microbench_prog.run ~iters:300 config in
      let observers =
        [
          Observers.metrics (Kmetrics.create ());
          Observers.profiler (Profiler.create ~period:13 ());
        ]
      in
      let observed =
        Workloads.Microbench_prog.run ~iters:300 ~observers config
      in
      plain = observed)

(* --- observation-only: full state identity on a C program ---------- *)

let final_state src ~observe =
  let k = Kernel.create () in
  if observe then begin
    Kernel.attach_metrics k (Kmetrics.create ());
    Kernel.observe k (Observers.profiler (Profiler.create ~period:37 ()))
  end;
  ignore (Vfs.add_file k.Types.vfs "/data/seed" "0123456789abcdef");
  let t = Kernel.spawn k (Minicc.Codegen.compile_to_image src) in
  ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ()));
  Buffer.clear Kernel.console;
  Alcotest.(check bool) "terminated" true
    (Kernel.run_until_exit ~max_slices:600_000 k);
  let regs = List.init 16 (fun r -> Sim_cpu.Cpu.peek_reg t.Types.ctx r) in
  let mem_dump =
    Sim_mem.Mem.regions t.Types.mem
    |> List.map (fun (addr, len, perm) ->
           (addr, len, perm, Digest.string (Sim_mem.Mem.peek_bytes t.Types.mem addr len)))
  in
  ( t.Types.exit_code,
    Buffer.contents Kernel.console,
    t.Types.tcycles,
    Types.global_time k,
    t.Types.ctx.Sim_cpu.Cpu.rip,
    regs,
    mem_dump )

let test_state_identity () =
  let src =
    "long main() {\n\
     char buf[64];\n\
     long fd = syscall(2, \"/data/seed\", 0, 0);\n\
     long acc = syscall(0, fd, buf, 16);\n\
     syscall(3, fd);\n\
     for (long i = 0; i < 4; i = i + 1) { acc = acc + syscall(186); }\n\
     syscall(1, 1, \"done\", 4);\n\
     return acc & 63;\n\
     }"
  in
  let a = final_state src ~observe:false in
  let b = final_state src ~observe:true in
  let c1, o1, tc1, g1, rip1, regs1, mem1 = a in
  let c2, o2, tc2, g2, rip2, regs2, mem2 = b in
  Alcotest.(check int) "exit code" c1 c2;
  Alcotest.(check string) "console" o1 o2;
  Alcotest.(check int64) "task cycles" tc1 tc2;
  Alcotest.(check int64) "global time" g1 g2;
  Alcotest.(check int) "rip" rip1 rip2;
  Alcotest.(check (list int64)) "registers" regs1 regs2;
  Alcotest.(check int) "region count" (List.length mem1) (List.length mem2);
  List.iter2
    (fun (a1, l1, p1, d1) (a2, l2, p2, d2) ->
      Alcotest.(check int) "region addr" a1 a2;
      Alcotest.(check int) "region len" l1 l2;
      Alcotest.(check int) "region perm" p1 p2;
      Alcotest.(check string) "region bytes" (Digest.to_hex d1)
        (Digest.to_hex d2))
    mem1 mem2

(* The icache and block-engine probes count from attach: they read
   process-wide counters, which a first run in the same process has
   already advanced, so two identical runs must scrape the same. *)
let test_icache_probes_since_attach () =
  let hits () =
    let m = Kmetrics.create () in
    ignore
      (Workloads.Microbench_prog.run ~iters:200
         ~observers:[ Observers.metrics m ]
         Workloads.Microbench_prog.Lazypoline_full);
    M.find m.Kmetrics.registry "sim_icache_hits_total"
  in
  let first = hits () in
  Alcotest.(check bool) "hits counted" true
    (match first with Some n -> n > 0 | None -> false);
  Alcotest.(check (option int)) "second run scrapes the same" first (hits ())

let tests =
  [
    Alcotest.test_case "registry: counter idempotent" `Quick
      test_counter_idempotent;
    Alcotest.test_case "registry: labels distinguish" `Quick
      test_labels_distinguish;
    Alcotest.test_case "registry: probe re-registration" `Quick
      test_probe_replaces;
    Alcotest.test_case "registry: histogram buckets" `Quick
      test_histogram_buckets;
    Alcotest.test_case "export: prometheus shape" `Quick test_prometheus_shape;
    Alcotest.test_case "export: json shape" `Quick test_json_shape;
    Alcotest.test_case "kernel: dispatch counts" `Quick test_kernel_counts;
    Alcotest.test_case "kernel: lazypoline fast/slow split" `Quick
      test_kernel_dispatch_split;
    Alcotest.test_case "kernel: zpoline sweep counters" `Quick
      test_sweep_metrics;
    QCheck_alcotest.to_alcotest prop_observers_cycle_identical;
    Alcotest.test_case "observers: full state identity" `Quick
      test_state_identity;
    Alcotest.test_case "kernel: icache probes count from attach" `Quick
      test_icache_probes_since_attach;
  ]
