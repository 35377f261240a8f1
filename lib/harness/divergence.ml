(** Cross-mechanism divergence auditing.

    Runs one workload under each interposition mechanism with a
    {!Sim_audit.Audit} recorder attached, diffs the per-task
    application streams against an uninterposed (raw) run modulo
    mechanism-private events, and on mismatch bisects to the first
    divergent syscall, replays both runs up to it, and dumps a
    side-by-side register / memory-page delta.

    This is the executable form of the paper's "interposition without
    compromise" claim: for a correct interposer the diff is empty —
    every syscall number, argument, result, callee-saved register and
    the xstate are identical to the raw run, under every mechanism. *)

open Sim_isa
open Sim_kernel
module A = Sim_audit.Audit
module Hook = Lazypoline.Hook

(* ------------------------------------------------------------------ *)
(* Mechanisms                                                          *)

type mech = Raw | Sud | Zpoline | Lazypoline_m | Seccomp | Ptrace

let all_mechs = [ Raw; Sud; Zpoline; Lazypoline_m; Seccomp; Ptrace ]

let mech_name = function
  | Raw -> "raw"
  | Sud -> "sud"
  | Zpoline -> "zpoline"
  | Lazypoline_m -> "lazypoline"
  | Seccomp -> "seccomp"
  | Ptrace -> "ptrace"

let mech_of_string s =
  match String.lowercase_ascii s with
  | "raw" | "none" -> Some Raw
  | "sud" -> Some Sud
  | "zpoline" -> Some Zpoline
  | "lazypoline" -> Some Lazypoline_m
  | "seccomp" | "seccomp-user" -> Some Seccomp
  | "ptrace" -> Some Ptrace
  | _ -> None

let install ?(preserve_xstate = true) mech k t (hook : Hook.t) =
  match mech with
  | Raw -> ()
  | Sud -> ignore (Baselines.Sud_interposer.install k t hook)
  | Zpoline -> ignore (Baselines.Zpoline.install k t hook)
  | Lazypoline_m -> ignore (Lazypoline.install ~preserve_xstate k t hook)
  | Seccomp -> ignore (Baselines.Seccomp_user.install k t hook)
  | Ptrace -> ignore (Baselines.Ptrace_interposer.install k t hook)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload =
  | Micro of { iters : int; nr : int }  (** the Table II loop *)
  | Prog of { src : string; jit : bool }  (** a minicc program *)
  | Forkexec  (** fork + execve + wait4 across two tasks *)
  | Sigmicro of { iters : int }
      (** signal-handler-rich loop over blocking syscalls — the chaos
          engine's favourite prey: two user handlers (SIGALRM with
          SA_RESTART, SIGUSR1 without), and every iteration issues
          write, getpid, nanosleep, a timed FUTEX_WAIT and a timed
          epoll_wait, so injected signals land on restartable and
          non-restartable waits alike *)
  | Attack of { iters : int }
      (** the policy engine's adversarial prey: a getpid loop that
          computes the syscall number as [rbx + rbp + r12..r15] (all
          initialised so the sum is [getpid]) — any chaos clobber of
          any callee-saved register turns the next iteration into an
          out-of-graph syscall number, one detectable escape per
          clobber class *)
  | Wrk of {
      flavour : Workloads.Webserver.flavour;
      size_kb : int;
      conns : int;
      requests : int;
    }
      (** the Fig. 5 macrobench as an audited workload: one
          single-worker web server (the worker exits after serving
          [requests], so the run self-terminates) driven by the wrk
          load generator with [conns] keepalive connections.  This is
          what the request-flow span recorder traces; note the app
          event stream is timing-dependent (epoll batching varies
          with interposer overhead), so Wrk runs are recorded and
          replayed {e per mechanism} — cross-mechanism diffs use the
          deterministic workloads above. *)

let workload_name = function
  | Micro { iters; nr } -> Printf.sprintf "microbench(iters=%d,nr=%d)" iters nr
  | Prog { jit; _ } -> if jit then "minicc-jit" else "minicc"
  | Forkexec -> "fork-execve"
  | Sigmicro { iters } -> Printf.sprintf "sigmicro(iters=%d)" iters
  | Attack { iters } -> Printf.sprintf "attack(iters=%d)" iters
  | Wrk { flavour; size_kb; conns; requests } ->
      Printf.sprintf "wrk(%s,%dkb,conns=%d,requests=%d)"
        (Workloads.Webserver.flavour_name flavour)
        size_kb conns requests

let forkexec_child_path = "/bin/child"

let forkexec_child_image () =
  let items =
    Sim_asm.Asm.
      [
        Label "cstart";
        Lea_ip (Isa.rsi, "msg");
        mov_ri Isa.rdi 1;
        mov_ri Isa.rdx 6;
        mov_ri Isa.rax Defs.sys_write;
        syscall;
        mov_ri Isa.rdi 0;
        mov_ri Isa.rax Defs.sys_exit_group;
        syscall;
        Label "msg";
        Bytes "child\n";
      ]
  in
  let blob = Sim_asm.Asm.assemble ~base:Loader.code_base items in
  Loader.image ~entry:(Sim_asm.Asm.symbol blob "cstart") ~text:blob ()

let forkexec_items () =
  Sim_asm.Asm.
    [
      Label "start";
      mov_ri Isa.rax Defs.sys_fork;
      syscall;
      cmp_ri Isa.rax 0;
      Jcc_l (Isa.Ne, "parent");
      (* child: execve a registered program *)
      Lea_ip (Isa.rdi, "path");
      mov_ri Isa.rsi 0;
      mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_execve;
      syscall;
      (* unreachable unless execve failed *)
      mov_ri Isa.rdi 1;
      mov_ri Isa.rax Defs.sys_exit_group;
      syscall;
      Label "parent";
      mov_rr Isa.rdi Isa.rax;
      mov_ri Isa.rsi 0;
      mov_ri Isa.rdx 0;
      mov_ri Isa.r10 0;
      mov_ri Isa.rax Defs.sys_wait4;
      syscall;
      mov_ri Isa.rdi 0;
      mov_ri Isa.rax Defs.sys_exit_group;
      syscall;
      Label "path";
      Bytes (forkexec_child_path ^ "\000");
    ]

(* Globals page for sigmicro, mapped by the program itself:
   +0x00 SIGALRM handler hit count     +0x40 futex word (stays 0)
   +0x08 SIGUSR1 handler hit count     +0x80 nanosleep timespec
   +0xC0 futex-wait timespec           +0x100 epoll_wait event buffer
   +0x140 sigaction staging area

   The sigaction struct deliberately lives here and NOT below rsp: a
   sigflow interposer's SIGSYS frame lands below the interrupted rsp
   and would clobber anything the app staged there — data passed to a
   syscall must be in memory the app actually owns. *)
let sigmicro_globals = 0x9000

let sigmicro_install_handler sig_ ~handler ~flags =
  Sim_asm.Asm.
    [
      mov_ri Isa.rbx (sigmicro_globals + 0x140);
      Lea_ip (Isa.rcx, handler);
      store Isa.rbx 0 Isa.rcx;
      mov_ri Isa.rcx 0;
      store Isa.rbx 8 Isa.rcx;
      mov_ri Isa.rcx flags;
      store Isa.rbx 16 Isa.rcx;
      Lea_ip (Isa.rcx, "restorer");
      store Isa.rbx 24 Isa.rcx;
      mov_ri Isa.rdi sig_;
      mov_rr Isa.rsi Isa.rbx;
      mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_rt_sigaction;
      syscall;
    ]

let sigmicro_counter_bump off =
  Sim_asm.Asm.
    [
      mov_ri Isa.rbx sigmicro_globals;
      load Isa.rcx Isa.rbx off;
      add_ri Isa.rcx 1;
      store Isa.rbx off Isa.rcx;
      ret;
    ]

let sigmicro_items ~iters =
  let g = sigmicro_globals in
  Sim_asm.Asm.(
    [
      Label "start";
      (* map the globals page *)
      mov_ri Isa.rdi g;
      mov_ri Isa.rsi 4096;
      mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
      mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
      mov_ri64 Isa.r8 (-1L);
      mov_ri Isa.r9 0;
      mov_ri Isa.rax Defs.sys_mmap;
      syscall;
    ]
    @ sigmicro_install_handler Defs.sigalrm ~handler:"h_alrm"
        ~flags:Defs.sa_restart
    @ sigmicro_install_handler Defs.sigusr1 ~handler:"h_usr1" ~flags:0
    @ [
        (* timespecs: nanosleep {0, 1500ns}; futex wait {0, 1000ns} *)
        mov_ri Isa.rbx (g + 0x80);
        mov_ri Isa.rcx 0;
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rcx 1500;
        store Isa.rbx 8 Isa.rcx;
        mov_ri Isa.rbx (g + 0xC0);
        mov_ri Isa.rcx 0;
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rcx 1000;
        store Isa.rbx 8 Isa.rcx;
        (* epoll instance (empty interest set: a positive-timeout wait
           always runs to its virtual deadline) *)
        mov_ri Isa.rdi 8;
        mov_ri Isa.rax Defs.sys_epoll_create;
        syscall;
        mov_rr Isa.r14 Isa.rax;
        mov_ri Isa.r13 iters;
        Label "loop";
        (* write(1, msg, 6): restartable *)
        mov_ri Isa.rdi 1;
        Lea_ip (Isa.rsi, "msg");
        mov_ri Isa.rdx 6;
        mov_ri Isa.rax Defs.sys_write;
        syscall;
        mov_ri Isa.rax Defs.sys_getpid;
        syscall;
        (* nanosleep(&ts, 0): blocks ~1.5us, -EINTR on any handler *)
        mov_ri Isa.rdi (g + 0x80);
        mov_ri Isa.rsi 0;
        mov_ri Isa.rax Defs.sys_nanosleep;
        syscall;
        (* futex(&word, FUTEX_WAIT, 0, &ts): word never changes, so
           the wait ends in -ETIMEDOUT unless a signal lands first *)
        mov_ri Isa.rdi (g + 0x40);
        mov_ri Isa.rsi Defs.futex_wait;
        mov_ri Isa.rdx 0;
        mov_ri Isa.r10 (g + 0xC0);
        mov_ri Isa.rax Defs.sys_futex;
        syscall;
        (* epoll_wait(epfd, buf, 8, 1ms): wakes with 0 at the deadline *)
        mov_rr Isa.rdi Isa.r14;
        mov_ri Isa.rsi (g + 0x100);
        mov_ri Isa.rdx 8;
        mov_ri Isa.r10 1;
        mov_ri Isa.rax Defs.sys_epoll_wait;
        syscall;
        sub_ri Isa.r13 1;
        cmp_ri Isa.r13 0;
        Jcc_l (Isa.Ne, "loop");
        mov_ri Isa.rdi 0;
        mov_ri Isa.rax Defs.sys_exit_group;
        syscall;
        Label "h_alrm";
      ]
    @ sigmicro_counter_bump 0
    @ [ Label "h_usr1" ]
    @ sigmicro_counter_bump 8
    @ [
        Label "restorer";
        mov_ri Isa.rax Defs.sys_rt_sigreturn;
        syscall;
        Label "msg";
        Bytes "chaos\n";
      ])

(* The syscall number is recomputed from callee-saved registers every
   iteration, so a clobber injection at any interception corrupts the
   *next* number issued — the policy engine must localize it.  The
   counter lives in rsi (caller-saved, outside the clobber set) so
   the loop structure itself survives the attack. *)
let attack_items ~iters =
  Sim_asm.Asm.(
    [
      Label "start";
      mov_ri Isa.rbx Defs.sys_getpid;
      mov_ri Isa.rbp 0;
      mov_ri Isa.r12 0;
      mov_ri Isa.r13 0;
      mov_ri Isa.r14 0;
      mov_ri Isa.r15 0;
      mov_ri Isa.rsi iters;
      Label "loop";
      mov_rr Isa.rax Isa.rbx;
      add_rr Isa.rax Isa.rbp;
      add_rr Isa.rax Isa.r12;
      add_rr Isa.rax Isa.r13;
      add_rr Isa.rax Isa.r14;
      add_rr Isa.rax Isa.r15;
      Label "site";
      syscall;
      sub_ri Isa.rsi 1;
      cmp_ri Isa.rsi 0;
      Jcc_l (Isa.Ne, "loop");
      mov_ri Isa.rdi 0;
      mov_ri Isa.rax Defs.sys_exit_group;
      Label "site_exit";
      syscall;
    ])

let workload_image k = function
  | Micro { iters; nr } ->
      let blob =
        Sim_asm.Asm.assemble ~base:Loader.code_base
          (Workloads.Microbench_prog.bench_items ~iters ~nr)
      in
      Loader.image ~entry:(Sim_asm.Asm.symbol blob "start") ~text:blob ()
  | Prog { src; jit } ->
      if jit then Minicc.Jit.driver_image src
      else Minicc.Codegen.compile_to_image src
  | Forkexec ->
      Hashtbl.replace k.Types.programs forkexec_child_path
        (forkexec_child_image ());
      let blob =
        Sim_asm.Asm.assemble ~base:Loader.code_base (forkexec_items ())
      in
      Loader.image ~entry:(Sim_asm.Asm.symbol blob "start") ~text:blob ()
  | Sigmicro { iters } ->
      let blob =
        Sim_asm.Asm.assemble ~base:Loader.code_base (sigmicro_items ~iters)
      in
      Loader.image ~entry:(Sim_asm.Asm.symbol blob "start") ~text:blob ()
  | Attack { iters } ->
      let blob =
        Sim_asm.Asm.assemble ~base:Loader.code_base (attack_items ~iters)
      in
      Loader.image ~entry:(Sim_asm.Asm.symbol blob "start") ~text:blob ()
  | Wrk _ -> invalid_arg "workload_image: Wrk boots via workload_spawn"

let wrk_port = 80
let wrk_file = "/www/index.html"

(** Boot [workload]'s initial task into [k].  For the image-based
    workloads this is compile + spawn; [Wrk] instead boots the web
    server (the load generator attaches later, in
    {!workload_start}, so the interposer is installed on the server
    before any request traffic exists). *)
let workload_spawn k workload : Types.task =
  match workload with
  | Wrk { flavour; size_kb; requests; _ } ->
      Workloads.Webserver.boot_into k ~port:wrk_port ~exit_after:requests
        ~flavour ~workers:1
        ~files:[ (wrk_file, String.make (size_kb * 1024) 'x') ]
        ()
  | w ->
      let img = workload_image k w in
      (* The provenance ledger symbolizes unwound PCs through the
         image's symbol table; announce it before any code runs. *)
      if k.Types.observers <> [] then
        Types.emit k (Types.Symbols img.Types.img_symbols);
      Kernel.spawn k img

(** Post-install start-up: for [Wrk], run the kernel until the server
    listens, then attach the load generator ([max_requests] caps the
    issued rids so exactly [requests] requests exist end to end).
    No-op for the self-contained workloads. *)
let workload_start k workload =
  match workload with
  | Wrk { size_kb; conns; requests; _ } ->
      Workloads.Webserver.wait_listening k ~port:wrk_port;
      ignore
        (Workloads.Wrk.attach ~max_requests:requests k ~port:wrk_port ~conns
           ~file:wrk_file ~file_size:(size_kb * 1024))
  | _ -> ()

(** The span-recorder subscriber for [o], with the interposer code
    windows registered so cycles retired there are attributed to the
    interposition phase. *)
let spans (o : Sim_obs.Obs.t) : Types.observer =
  List.iter
    (fun (lo, hi, _) -> Sim_obs.Obs.add_range o ~lo ~hi)
    Lazypoline.Layout.interposer_windows;
  Observers.spans o

(* ------------------------------------------------------------------ *)
(* Audited runs                                                        *)

(** A seeded fault for the bisection test: at interception number
    [at] (1-based, counted at the hook), clobber register [reg] with
    [value] — modelling an interposer that fails to preserve
    callee-saved state on one syscall. *)
type perturb = { at : int; reg : int; value : int64 }

(** Run [workload] under [mech] with an auditor attached.  Returns
    the audit, the kernel and the initial task.  [stop_after] halts
    the machine after that many application syscalls (replay-to-point
    for delta dumps).  [chaos] attaches a chaos engine for the run:
    the interposer hot windows (trampoline page, interposer code) are
    registered for biased preemption, and for interposed mechanisms
    the hook is wrapped so register-clobber injections fire at
    interception time — modelling an interposer that corrupts
    callee-saved state.  [blocks] forces the threaded-code block
    engine on/off for the run (default: the kernel's
    [SIM_NO_BLOCKS]-aware default) — the lever for the engine-identity
    gates.  [observers] subscribe after the auditor and are told the
    workload image's symbols at spawn (see {!spans} for the span
    recorder).  [policy] attaches a syscall-flow-integrity engine:
    observation-only in report/learning mode, intrusive in deny/kill
    mode. *)
let run_audited ?(checkpoint_every = 64) ?stop_after ?perturb ?chaos ?blocks
    ?(observers = []) ?policy mech workload : A.t * Types.kernel * Types.task =
  let a = A.create ~checkpoint_every ?stop_after () in
  let k = Kernel.create ?blocks () in
  Kernel.attach_audit k a;
  List.iter (Kernel.observe k) observers;
  (match policy with Some p -> Kernel.attach_policy k p | None -> ());
  (match chaos with
  | Some ch ->
      List.iter
        (fun (lo, hi, _) -> Sim_chaos.Chaos.add_hot_range ch ~lo ~hi)
        Lazypoline.Layout.interposer_windows;
      Kernel.attach_chaos k ch
  | None -> ());
  (* The same fixture files simtrace mounts, so `simtrace diff` on a
     user program sees the run `simtrace run` would. *)
  ignore (Vfs.add_file k.Types.vfs "/etc/hosts" "127.0.0.1 localhost\n");
  ignore (Vfs.add_file k.Types.vfs "/tmp/file_a" (String.make 256 'a'));
  let t = workload_spawn k workload in
  let hook = Hook.dummy () in
  (match perturb with
  | Some p ->
      let count = ref 0 in
      let inner = hook.Hook.on_syscall in
      hook.Hook.on_syscall <-
        (fun c ->
          incr count;
          if !count = p.at then Hook.set_reg c p.reg p.value;
          inner c)
  | None -> ());
  (match (chaos, mech) with
  | Some ch, m when m <> Raw ->
      let inner = hook.Hook.on_syscall in
      hook.Hook.on_syscall <-
        (fun c ->
          (match Sim_chaos.Chaos.clobber_injection ch with
          | Some (reg, value) -> Hook.set_reg c reg value
          | None -> ());
          inner c)
  | _ -> ());
  install mech k t hook;
  workload_start k workload;
  ignore (Kernel.run_until_exit ~max_slices:40_000_000 k);
  (a, k, t)

(** Serialize an audit with the kernel's syscall/errno names. *)
let log_string ?final_hash a =
  A.to_string ?final_hash ~syscall_name:Defs.syscall_name
    ~errno_name:Defs.errno_name a

(* ------------------------------------------------------------------ *)
(* Delta dump at the divergence point                                  *)

let dump_regs buf name_l name_r (cl : Sim_cpu.Cpu.t) (cr : Sim_cpu.Cpu.t) =
  Printf.bprintf buf "  %-5s %-18s %-18s\n" "reg" name_l name_r;
  for r = 0 to 15 do
    let vl = Sim_cpu.Cpu.peek_reg cl r and vr = Sim_cpu.Cpu.peek_reg cr r in
    Printf.bprintf buf "  %-5s 0x%-16Lx 0x%-16Lx%s\n" (Isa.gpr_name r) vl vr
      (if vl <> vr then "   <-- differs" else "")
  done;
  Printf.bprintf buf "  %-5s 0x%-16x 0x%-16x%s\n" "rip" cl.Sim_cpu.Cpu.rip
    cr.Sim_cpu.Cpu.rip
    (if cl.Sim_cpu.Cpu.rip <> cr.Sim_cpu.Cpu.rip then "   <-- differs" else "")

let dump_page_delta buf (ml : Sim_mem.Mem.t) (mr : Sim_mem.Mem.t) =
  let pages m = Sim_mem.Mem.mapped_pages m in
  let pl = pages ml and pr = pages mr in
  let both = List.filter (fun pn -> List.mem pn pr) pl in
  let only_l = List.filter (fun pn -> not (List.mem pn pr)) pl in
  let only_r = List.filter (fun pn -> not (List.mem pn pl)) pr in
  let differing =
    List.filter (fun pn -> A.page_hash ml pn <> A.page_hash mr pn) both
  in
  let show label pns =
    if pns <> [] then begin
      let shown = List.filteri (fun i _ -> i < 16) pns in
      Printf.bprintf buf "  %s: %d page(s):%s%s\n" label (List.length pns)
        (String.concat ""
           (List.map
              (fun pn ->
                Printf.sprintf " 0x%x" (pn * Sim_mem.Mem.page_size))
              shown))
        (if List.length pns > 16 then " ..." else "")
    end
  in
  show "pages with differing content" differing;
  show "pages mapped only in left" only_l;
  show "pages mapped only in right" only_r;
  if differing = [] && only_l = [] && only_r = [] then
    Printf.bprintf buf "  memory: identical page sets and contents\n"

(** Replay both runs up to the divergent syscall and render the
    side-by-side state delta. *)
let delta_dump ?perturb_for ~base_mech ~mech workload (d : A.divergence) :
    string =
  let buf = Buffer.create 1024 in
  let perturb_of m =
    match perturb_for with
    | Some (pm, p) when pm = m -> Some p
    | _ -> None
  in
  match (d.A.d_left, d.A.d_right) with
  | Some l, Some r when l.A.app_seq > 0 && r.A.app_seq > 0 ->
      let _, kl, _ =
        run_audited ?perturb:(perturb_of base_mech) ~stop_after:l.A.app_seq
          base_mech workload
      in
      let _, kr, _ =
        run_audited ?perturb:(perturb_of mech) ~stop_after:r.A.app_seq mech
          workload
      in
      (match
         ( Hashtbl.find_opt kl.Types.tasks d.A.d_tid,
           Hashtbl.find_opt kr.Types.tasks d.A.d_tid )
       with
      | Some tl, Some tr ->
          Printf.bprintf buf
            "state at first divergent syscall (tid %d, app syscall #%d):\n"
            d.A.d_tid l.A.app_seq;
          dump_regs buf (mech_name base_mech) (mech_name mech) tl.Types.ctx
            tr.Types.ctx;
          dump_page_delta buf tl.Types.mem tr.Types.mem
      | _ ->
          Printf.bprintf buf
            "  (tid %d no longer live at the divergence point)\n" d.A.d_tid);
      Buffer.contents buf
  | _ ->
      Printf.bprintf buf
        "  (stream ended or diverged on a non-syscall event; no replay \
         point)\n";
      Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The diff driver                                                     *)

type finding = { f_mech : mech; f_div : A.divergence; f_delta : string }

type outcome = {
  o_base : mech;
  o_workload : workload;
  o_runs : (mech * A.t * int64) list;  (** mech, audit, final state hash *)
  o_findings : finding list;  (** empty = zero divergences *)
  o_text : string;  (** human-readable report *)
}

(** Run [workload] under every mechanism in [mechs], diff each
    against [against] (default raw), bisect mismatches and attach
    delta dumps.  [perturb_for] seeds a fault into one mechanism —
    the bisection self-test. *)
let diff ?(against = Raw) ?perturb_for ?(mechs = all_mechs) workload : outcome
    =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "divergence audit: %s, base %s\n"
    (workload_name workload) (mech_name against);
  let perturb_of m =
    match perturb_for with
    | Some (pm, p) when pm = m -> Some p
    | _ -> None
  in
  let run m =
    let a, k, _ = run_audited ?perturb:(perturb_of m) m workload in
    (m, a, Kernel.audit_final_hash k a)
  in
  let base = run against in
  let others = List.filter (fun m -> m <> against) mechs in
  let runs = base :: List.map run others in
  let _, base_audit, _ = base in
  let findings = ref [] in
  List.iter
    (fun (m, a, final) ->
      if m <> against then begin
        match A.first_divergence base_audit a with
        | None ->
            Printf.bprintf buf
              "  %-12s OK: %d app syscalls identical (final state hash \
               %Lx)\n"
              (mech_name m) (A.app_count a) final
        | Some d ->
            let delta =
              delta_dump ?perturb_for ~base_mech:against ~mech:m workload d
            in
            Printf.bprintf buf
              "  %-12s DIVERGED at tid %d, app event %d: %s\n" (mech_name m)
              d.A.d_tid (d.A.d_index + 1) d.A.d_reason;
            (match (d.A.d_left, d.A.d_right) with
            | Some l, Some r ->
                Printf.bprintf buf "    %-12s %s\n    %-12s %s\n"
                  (mech_name against)
                  (A.describe_ev ~syscall_name:Defs.syscall_name l.A.ev)
                  (mech_name m)
                  (A.describe_ev ~syscall_name:Defs.syscall_name r.A.ev)
            | _ -> ());
            Buffer.add_string buf delta;
            findings := { f_mech = m; f_div = d; f_delta = delta } :: !findings
      end)
    runs;
  let findings = List.rev !findings in
  if findings = [] then
    Printf.bprintf buf "zero divergences across %d mechanism(s)\n"
      (List.length others);
  {
    o_base = against;
    o_workload = workload;
    o_runs = runs;
    o_findings = findings;
    o_text = Buffer.contents buf;
  }

(* ------------------------------------------------------------------ *)
(* Engine identity: threaded-code blocks vs. the pure interpreter      *)

(** Run [workload] under [mech] twice — once through the threaded-code
    block engine, once forced onto the per-instruction interpreter —
    and compare everything an audit can see: the application event
    stream, the periodic state-hash checkpoints, the final
    register+memory hash and the total simulated cycle count.  This is
    the PR-6 acceptance gate: the engine must be a host-side
    optimisation with no simulated footprint whatsoever. *)
let engine_identical mech workload : bool * string =
  let run blocks =
    let a, k, _ = run_audited ~blocks mech workload in
    let h = Kernel.audit_final_hash k a in
    (log_string ~final_hash:h a, Types.global_time k, h)
  in
  let log_on, cyc_on, h_on = run true in
  let log_off, cyc_off, h_off = run false in
  if log_on = log_off && cyc_on = cyc_off then
    ( true,
      Printf.sprintf "identical: %Ld cycles, state hash %Lx" cyc_on h_on )
  else
    ( false,
      Printf.sprintf
        "ENGINE MISMATCH: cycles %Ld (blocks) vs %Ld (interp), hash %Lx vs \
         %Lx, audit logs %s"
        cyc_on cyc_off h_on h_off
        (if log_on = log_off then "equal" else "differ") )
