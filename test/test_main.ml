let () =
  Alcotest.run "lazypoline-sim"
    [
      ("isa", Test_isa.tests);
      ("asm", Test_asm.tests);
      ("mem", Test_mem.tests);
      ("cpu", Test_cpu.tests);
      ("icache", Test_icache.tests);
      ("bpf", Test_bpf.tests);
      ("vfs", Test_vfs.tests);
      ("net", Test_net.tests);
      ("kernel", Test_kernel.tests);
      ("signals", Test_signals.tests);
      ("sud-seccomp", Test_sud_seccomp.tests);
      ("lazypoline", Test_lazypoline.tests);
      ("baselines", Test_baselines.tests);
      ("minicc", Test_minicc.tests);
      ("workloads", Test_workloads.tests);
      ("experiments", Test_experiments.tests);
      ("mpk", Test_mpk.tests);
      ("lazypoline-edge", Test_lazypoline_edge.tests);
      ("minicc-interpose", Test_minicc_interpose.tests);
      ("kernel-more", Test_kernel_more.tests);
      ("stats", Test_stats.tests);
      ("trace", Test_trace.tests);
      ("metrics", Test_metrics.tests);
      ("procfs", Test_procfs.tests);
      ("profiler", Test_profiler.tests);
      ("audit", Test_audit.tests);
      ("chaos", Test_chaos.tests);
      ("debug", Test_debug.tests);
      ("obs", Test_obs.tests);
      ("observers", Test_observers.tests);
      ("policy", Test_policy.tests);
      ("alloc", Test_alloc.tests);
      ("json", Test_json.tests);
    ]
