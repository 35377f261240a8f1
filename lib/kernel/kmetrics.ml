(** The kernel's named metric bundle.

    Pre-registers every metric the metrics subscriber
    ({!Observers.metrics}) bumps from the kernel-event stream, so it
    touches plain [int ref]s instead of hashing into the registry.
    The attached bundle is also kept as [k.metrics], the read handle
    /proc/metrics renders.

    Naming follows Prometheus conventions ([sim_] prefix, [_total]
    for counters).  Per-syscall-number counters are created lazily on
    first dispatch of that number, so the registry only carries rows
    for syscalls the workload actually made. *)

module M = Sim_metrics.Metrics
module Ev = Sim_trace.Event

type t = {
  registry : M.t;
  syscalls_total : int ref;
  by_path : int ref array;  (** indexed by {!Ev.path_index} *)
  by_nr : int ref option array;  (** lazily-registered, indexed by nr *)
  syscall_cycles : M.hist;
  ctx_switches : int ref;
  signal_deliveries : int ref;
  sigreturns : int ref;
  selector_flips : int ref;
  rewrites : int ref;
  sweeps : int ref;
  sweep_sites : int ref;
  sweep_bytes : int ref;
  mmap_bytes : int ref;
  munmap_bytes : int ref;
  mprotect_bytes : int ref;
  wx_flips : int ref;
}

let create () =
  let r = M.create () in
  let by_path = Array.make 5 (ref 0) in
  List.iter
    (fun p ->
      by_path.(Ev.path_index p) <-
        M.counter r
          ~help:"syscall dispatches by interposition path"
          ~labels:[ ("path", Ev.path_name p) ]
          "sim_syscalls_by_path_total")
    Ev.all_paths;
  {
    registry = r;
    syscalls_total =
      M.counter r ~help:"syscalls dispatched by the simulated kernel"
        "sim_syscalls_total";
    by_path;
    by_nr = Array.make (Defs.max_syscall + 1) None;
    syscall_cycles =
      M.histogram r ~help:"simulated cycles per syscall (entry to exit)"
        "sim_syscall_cycles";
    ctx_switches =
      M.counter r ~help:"scheduler context switches" "sim_context_switches_total";
    signal_deliveries =
      M.counter r ~help:"signal handler frames pushed"
        "sim_signal_deliveries_total";
    sigreturns = M.counter r ~help:"rt_sigreturns" "sim_sigreturns_total";
    selector_flips =
      M.counter r ~help:"SUD selector flips by interposer hypercalls"
        "sim_sud_selector_flips_total";
    rewrites =
      M.counter r ~help:"syscall sites rewritten to call rax"
        "sim_rewrites_total";
    sweeps =
      M.counter r ~help:"zpoline-style full-image rewrite sweeps"
        "sim_rewrite_sweeps_total";
    sweep_sites =
      M.counter r ~help:"syscall sites found by rewrite sweeps"
        "sim_rewrite_sweep_sites_total";
    sweep_bytes =
      M.counter r ~help:"executable bytes scanned by rewrite sweeps"
        "sim_rewrite_sweep_bytes_total";
    mmap_bytes = M.counter r ~help:"bytes mapped" "sim_mmap_bytes_total";
    munmap_bytes = M.counter r ~help:"bytes unmapped" "sim_munmap_bytes_total";
    mprotect_bytes =
      M.counter r ~help:"bytes reprotected" "sim_mprotect_bytes_total";
    wx_flips =
      M.counter r
        ~help:"pages flipped writable-to-executable (JIT publish steps)"
        "sim_wx_flips_total";
  }

let add r n = r := !r + n

let nr_counter m nr =
  match m.by_nr.(nr) with
  | Some c -> c
  | None ->
      let c =
        M.counter m.registry ~help:"syscall dispatches by syscall number"
          ~labels:[ ("nr", string_of_int nr); ("name", Defs.syscall_name nr) ]
          "sim_syscalls_by_nr_total"
      in
      m.by_nr.(nr) <- Some c;
      c

(** One dispatched syscall: bumps the total, the per-path and the
    per-number counters. *)
let count_syscall m ~nr ~path =
  incr m.syscalls_total;
  incr m.by_path.(Ev.path_index path);
  if nr >= 0 && nr <= Defs.max_syscall then incr (nr_counter m nr)

let observe_latency m cycles = M.observe m.syscall_cycles cycles

(** Per-path count accessors for /proc and [simtrace stat]. *)
let path_count m p = !(m.by_path.(Ev.path_index p))
let fast_hits m = path_count m Ev.Fast_path
let slow_hits m = path_count m Ev.Sud_sigsys

let prometheus m = M.prometheus m.registry
let to_json m = M.to_json m.registry
