(** The /proc synthetic filesystem.

    Mounted on every kernel at creation, readable two ways:

    - by guest programs through ordinary [open]/[read]/[close]
      syscalls — these are real syscalls that charge real cycles and
      go through the installed interposer like any other, the one
      deliberate exception to the observation-only contract (see
      DESIGN.md §9);
    - by the host (tests, the CLI) through [Vfs.read_file], which
      touches no simulated state beyond the VFS inode counter.

    Nodes, all read-only and generated on open:

    - [/proc/<pid>/status]   — identity, state, signal masks, cycles
    - [/proc/<pid>/maps]     — the simulated MMU's mapping table
    - [/proc/<pid>/interposer] — SUD selector state and the
      machine-wide rewrite / fast/slow dispatch counters
    - [/proc/metrics]        — Prometheus exposition of the registry
    - [/proc/self/...]       — the currently-executing task *)

open Sim_mem
open Types

let state_name (t : task) =
  match t.state with
  | Runnable -> "R (running)"
  | Blocked _ -> "S (sleeping)"
  | Zombie -> "Z (zombie)"

let status (k : kernel) (t : task) =
  Printf.sprintf
    "Name:\t%s\nState:\t%s\nTgid:\t%d\nPid:\t%d\nPPid:\t%d\nThreads:\t%d\n\
     SigPnd:\t%016Lx\nSigBlk:\t%016Lx\nCpusAllowed:\t%d\nCycles:\t%Ld\n"
    t.comm (state_name t) t.tgid t.tid t.parent_tid
    (1 + List.length t.children)
    t.pending t.sigmask t.affinity (task_cycles k t)

(** One line per mapped region, straight from the MMU: the acceptance
    test parses this back and compares against [Mem.regions]. *)
let maps (t : task) =
  Mem.regions t.mem
  |> List.map (fun (addr, len, perm) ->
         Printf.sprintf "%08x-%08x %sp 00000000 00:00 0\n" addr (addr + len)
           (Mem.perm_to_string perm))
  |> String.concat ""

let selector_name (t : task) =
  if not t.sud.sud_on then "-"
  else
    match Mem.peek_bytes t.mem t.sud.sud_selector 1 with
    | s when Char.code s.[0] = Defs.syscall_dispatch_filter_block -> "BLOCK"
    | s when Char.code s.[0] = Defs.syscall_dispatch_filter_allow -> "ALLOW"
    | s -> Printf.sprintf "0x%02x" (Char.code s.[0])
    | exception Mem.Fault _ -> "(unmapped)"

(** SUD selector state plus the machine-wide interposition counters.
    The counters come from the metrics registry and are zero when no
    registry is attached; the selector state is per-task and always
    live.  Observers may append lines: with a provenance ledger
    attached, one [site] line per known call site follows (rewritten
    status, dispatch count and path mix — the paper's per-site
    specialization story, readable from inside the guest). *)
let interposer (k : kernel) (t : task) =
  let m = k.metrics in
  let c f = match m with Some m -> f m | None -> 0 in
  let head =
    Printf.sprintf
      "sud:\t%s\nselector:\t%s\nselector_addr:\t0x%x\nallowed_range:\t0x%x-0x%x\n\
       rewrites:\t%d\nselector_flips:\t%d\nfast_path:\t%d\nslow_path:\t%d\n\
       dispatches:\t%d\nmetrics:\t%s\n"
      (if t.sud.sud_on then "on" else "off")
      (selector_name t) t.sud.sud_selector t.sud.sud_lo
      (t.sud.sud_lo + t.sud.sud_len)
      (c (fun m -> !(m.Kmetrics.rewrites)))
      (c (fun m -> !(m.Kmetrics.selector_flips)))
      (c Kmetrics.fast_hits) (c Kmetrics.slow_hits)
      (c (fun m -> !(m.Kmetrics.syscalls_total)))
      (match m with Some _ -> "attached" | None -> "detached")
  in
  List.fold_left (fun acc o -> acc ^ o.proc t) head k.observers

let metrics_text (k : kernel) =
  match k.metrics with
  | Some m -> Kmetrics.prometheus m
  | None -> "# metrics registry not attached (Kernel.attach_metrics)\n"

(** Syscall-flow-integrity engine state: mode, graph dimensions,
    check/violation/verdict counters, the task's state-machine
    position, then one line per recorded violation. *)
let policy (k : kernel) (t : task) =
  match k.policy with
  | None -> "policy:\tdetached\n"
  | Some p ->
      let module P = Sim_policy.Policy in
      let g = p.P.graph in
      let b = Buffer.create 256 in
      Printf.bprintf b
        "policy:\t%s%s\ngraph:\t%s\nnodes:\t%d\nedges:\t%d\n\
         compartments:\t%d\nchecks:\t%d\nviolations:\t%d\ndenied:\t%d\n\
         killed:\t%d\nposition:\t%s\n"
        (P.mode_name p.P.mode)
        (if p.P.learning then " (learning)" else "")
        g.P.g_name (P.node_count g) (P.edge_count g) (P.compartment_count g)
        p.P.checks (P.violation_count p) p.P.denied p.P.killed
        (P.nr_name ~syscall_name:Defs.syscall_name (P.last_nr p ~tid:t.tid));
      List.iter
        (fun v ->
          Buffer.add_string b
            (P.describe_violation ~syscall_name:Defs.syscall_name v);
          Buffer.add_char b '\n')
        (P.violations p);
      Buffer.contents b

let pid_entries =
  [ ("status", false); ("maps", false); ("interposer", false);
    ("policy", false) ]

let lookup (k : kernel) (comps : string list) : Vfs.sentry option =
  let task_of = function
    | "self" -> k.cur_task
    | s -> (
        match int_of_string_opt s with
        | Some pid -> find_task k pid
        | None -> None)
  in
  match comps with
  | [] ->
      let pids =
        Hashtbl.fold (fun pid _ acc -> pid :: acc) k.tasks []
        |> List.sort compare
        |> List.map (fun pid -> (string_of_int pid, true))
      in
      Some (Vfs.Sdir ([ ("metrics", false); ("self", true) ] @ pids))
  | [ "metrics" ] -> Some (Vfs.Sfile (fun () -> metrics_text k))
  | [ p ] -> (
      match task_of p with
      | Some _ -> Some (Vfs.Sdir pid_entries)
      | None -> None)
  | [ p; leaf ] -> (
      match task_of p with
      | None -> None
      | Some t -> (
          match leaf with
          | "status" -> Some (Vfs.Sfile (fun () -> status k t))
          | "maps" -> Some (Vfs.Sfile (fun () -> maps t))
          | "interposer" -> Some (Vfs.Sfile (fun () -> interposer k t))
          | "policy" -> Some (Vfs.Sfile (fun () -> policy k t))
          | _ -> None))
  | _ -> None

(** Mount /proc on [k]'s VFS.  Note: "self" resolves through
    [k.cur_task], so it only exists from guest context (host-side
    readers name tasks by pid). *)
let mount (k : kernel) = Vfs.mount k.vfs "proc" ~lookup:(lookup k)
