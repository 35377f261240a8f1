(** The typed event model of the machine-wide tracer.

    One flat variant covers everything the simulator's interposition
    story needs to make inspectable: syscall entry/exit tagged with
    the dispatch path that carried it (the paper's Table II axis),
    signal delivery and [rt_sigreturn], SUD selector flips, the
    lazypoline [syscall] -> [call rax] rewrites, zpoline's load-time
    sweep, scheduler context switches, address-space mutations
    ([mmap]/[mprotect]/[munmap]), decoded-instruction-cache
    invalidations and JIT code publication.

    Events are plain data: emitting one never charges simulated
    cycles and never touches task state, so a traced run is
    cycle-for-cycle identical to an untraced one (asserted by the
    qcheck property in test_observers).  The kernel's own event type
    ([Sim_kernel.Types.event]) wraps these kinds and adds what the
    other observers need. *)

(** How a syscall reached (or was denied) the kernel's dispatcher. *)
type dispatch_path =
  | Sud_sigsys  (** SUD intercepted it: the lazypoline/SUD slow path *)
  | Fast_path  (** a rewritten [call rax] site, via the interposer stub *)
  | Seccomp_path  (** a seccomp filter decided its fate *)
  | Ptrace_path  (** dispatched under ptrace syscall-stops *)
  | Direct  (** plain [syscall], no interposition on the way in *)

let path_name = function
  | Sud_sigsys -> "sud-sigsys"
  | Fast_path -> "fast-path"
  | Seccomp_path -> "seccomp"
  | Ptrace_path -> "ptrace-stop"
  | Direct -> "direct"

let all_paths = [ Sud_sigsys; Fast_path; Seccomp_path; Ptrace_path; Direct ]

(** A path's position in {!all_paths}, for per-path counter arrays. *)
let path_index = function
  | Sud_sigsys -> 0
  | Fast_path -> 1
  | Seccomp_path -> 2
  | Ptrace_path -> 3
  | Direct -> 4

type kind =
  | Syscall_enter of { nr : int; path : dispatch_path }
  | Syscall_exit of {
      nr : int;
      path : dispatch_path;
      ret : int64;
      blocked : bool;  (** the task blocked; the syscall will retry *)
    }
  | Signal_deliver of { signo : int; handler : int }
  | Sigreturn
  | Selector_flip of { allow : bool }
      (** the interposer flipped the SUD selector byte *)
  | Rewrite of { site : int }
      (** lazypoline patched [syscall] -> [call rax] at [site] *)
  | Sweep of { sites : int; bytes_scanned : int }
      (** zpoline's load-time linear sweep finished *)
  | Context_switch of { prev_tid : int; next_tid : int }
  | Task_spawn of { child_tid : int }
  | Mmap of { addr : int; len : int; prot_exec : bool }
  | Munmap of { addr : int; len : int }
  | Mprotect of { addr : int; len : int; prot_exec : bool }
  | Icache_invalidate of { page : int }
      (** a stale page generation dropped a page's decoded entries *)
  | Jit_emit of { addr : int; len : int }
      (** freshly written pages became executable (W -> X flip): JIT
          emission, or an interposer re-publishing patched code *)

type t = {
  ts : int64;  (** simulated cycle time of the emitting CPU *)
  tid : int;  (** current task, or -1 when none *)
  cpu : int;  (** simulated CPU the event happened on *)
  seq : int;  (** tracer-wide emission order, to break timestamp ties *)
  kind : kind;
}

let kind_name = function
  | Syscall_enter _ -> "syscall_enter"
  | Syscall_exit _ -> "syscall_exit"
  | Signal_deliver _ -> "signal_deliver"
  | Sigreturn -> "sigreturn"
  | Selector_flip _ -> "selector_flip"
  | Rewrite _ -> "rewrite"
  | Sweep _ -> "sweep"
  | Context_switch _ -> "context_switch"
  | Task_spawn _ -> "task_spawn"
  | Mmap _ -> "mmap"
  | Munmap _ -> "munmap"
  | Mprotect _ -> "mprotect"
  | Icache_invalidate _ -> "icache_invalidate"
  | Jit_emit _ -> "jit_emit"

(** Debug rendering, one line per event. *)
let to_string (e : t) =
  let k =
    match e.kind with
    | Syscall_enter { nr; path } ->
        Printf.sprintf "syscall_enter nr=%d path=%s" nr (path_name path)
    | Syscall_exit { nr; path; ret; blocked } ->
        Printf.sprintf "syscall_exit nr=%d path=%s ret=%Ld%s" nr
          (path_name path) ret
          (if blocked then " (blocked)" else "")
    | Signal_deliver { signo; handler } ->
        Printf.sprintf "signal_deliver signo=%d handler=0x%x" signo handler
    | Sigreturn -> "sigreturn"
    | Selector_flip { allow } ->
        Printf.sprintf "selector_flip %s" (if allow then "ALLOW" else "BLOCK")
    | Rewrite { site } -> Printf.sprintf "rewrite site=0x%x" site
    | Sweep { sites; bytes_scanned } ->
        Printf.sprintf "sweep sites=%d bytes=%d" sites bytes_scanned
    | Context_switch { prev_tid; next_tid } ->
        Printf.sprintf "context_switch %d->%d" prev_tid next_tid
    | Task_spawn { child_tid } -> Printf.sprintf "task_spawn child=%d" child_tid
    | Mmap { addr; len; prot_exec } ->
        Printf.sprintf "mmap 0x%x+%d%s" addr len (if prot_exec then " X" else "")
    | Munmap { addr; len } -> Printf.sprintf "munmap 0x%x+%d" addr len
    | Mprotect { addr; len; prot_exec } ->
        Printf.sprintf "mprotect 0x%x+%d%s" addr len
          (if prot_exec then " X" else "")
    | Icache_invalidate { page } -> Printf.sprintf "icache_invalidate pn=%d" page
    | Jit_emit { addr; len } -> Printf.sprintf "jit_emit 0x%x+%d" addr len
  in
  Printf.sprintf "[%Ld cpu%d tid%d] %s" e.ts e.cpu e.tid k
