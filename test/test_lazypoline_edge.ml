(** Edge cases of the lazypoline mechanism: nested signals, threads,
    execve, blocking pipelines across processes, hook interactions on
    both paths. *)

open Sim_isa
open Sim_asm.Asm
open Sim_kernel
module Hook = Lazypoline.Hook

let install_handler_at ~sig_ ~handler_label ~scratch_off =
  [
    mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx scratch_off;
    Lea_ip (Isa.rcx, handler_label);
    store Isa.rbx 0 Isa.rcx;
    mov_ri Isa.rcx 0;
    store Isa.rbx 8 Isa.rcx; store Isa.rbx 16 Isa.rcx;
    store Isa.rbx 24 Isa.rcx;
    mov_ri Isa.rdi sig_;
    mov_rr Isa.rsi Isa.rbx;
    mov_ri Isa.rdx 0;
    mov_ri Isa.rax Defs.sys_rt_sigaction; syscall;
  ]

let kill_self sig_ =
  [
    mov_ri Isa.rax Defs.sys_getpid; syscall;
    mov_rr Isa.rdi Isa.rax;
    mov_ri Isa.rsi sig_;
    mov_ri Isa.rax Defs.sys_kill; syscall;
  ]

let map_globals =
  [
    mov_ri Isa.rdi 0x9000; mov_ri Isa.rsi 4096;
    mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
    mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
    mov_ri64 Isa.r8 (-1L); mov_ri Isa.r9 0;
    mov_ri Isa.rax Defs.sys_mmap; syscall;
  ]

let run ?(hook = Hook.dummy ()) ?(setup = fun _ -> ()) items =
  let k = Kernel.create () in
  setup k;
  let t = Kernel.spawn k (Loader.image_of_items items) in
  let st = Lazypoline.install k t hook in
  let ok = Kernel.run_until_exit ~max_slices:400_000 k in
  if not ok then Alcotest.fail "did not terminate";
  (t.Types.exit_code, st, k)

let test_nested_wrapped_signals () =
  (* USR1 handler raises USR2 (unmasked): the sigreturn stack must
     nest and unwind correctly, and all handler syscalls must be
     interposed. *)
  let hook, trace = Hook.tracing () in
  let prog =
    map_globals
    @ install_handler_at ~sig_:Defs.sigusr1 ~handler_label:"h1"
        ~scratch_off:1024
    @ install_handler_at ~sig_:Defs.sigusr2 ~handler_label:"h2"
        ~scratch_off:1024
    @ kill_self Defs.sigusr1
    @ [
        (* expect global = 0x21 (h2 ran inside h1) *)
        mov_ri Isa.rbx 0x9000;
        load Isa.rdi Isa.rbx 0;
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "h1";
        (* global = global*16 + 1 after h2 completes *)
      ]
    @ kill_self Defs.sigusr2
    @ [
        mov_ri Isa.rbx 0x9000;
        load Isa.rcx Isa.rbx 0;
        i (Isa.Shift (Isa.Shl, Isa.rcx, 4));
        add_ri Isa.rcx 1;
        store Isa.rbx 0 Isa.rcx;
        ret;
        Label "h2";
        mov_ri Isa.rax Defs.sys_gettid; syscall;
        mov_ri Isa.rbx 0x9000;
        mov_ri Isa.rcx 2;
        store Isa.rbx 0 Isa.rcx;
        ret;
      ]
  in
  let code, st, _ = run ~hook prog in
  Alcotest.(check int) "h2 nested inside h1" 0x21 code;
  Alcotest.(check int) "two sigreturns redirected" 2
    st.Lazypoline.stats.Lazypoline.sigreturns_redirected;
  Alcotest.(check bool) "h2's gettid interposed" true
    (List.mem Defs.sys_gettid (List.map fst (Hook.recorded trace)))

let test_thread_clone_vm_interposed () =
  (* A CLONE_VM thread gets its own %gs selector area and is fully
     interposed; the shared address space keeps working. *)
  let hook, trace = Hook.tracing () in
  let prog =
    map_globals
    @ [
        (* clone a thread with its own stack inside the shared page *)
        mov_ri Isa.rdi
          (Defs.clone_vm lor Defs.clone_files lor Defs.clone_sighand
         lor Defs.clone_thread);
        mov_ri Isa.rsi (0x9000 + 4096 - 512);
        mov_ri Isa.rdx 0; mov_ri Isa.r10 0; mov_ri Isa.r8 0;
        mov_ri Isa.rax Defs.sys_clone; syscall;
        cmp_ri Isa.rax 0;
        Jcc_l (Isa.Eq, "thread");
        (* main: wait for the thread's flag *)
        Label "spin";
        mov_ri Isa.rbx 0x9000;
        load Isa.rcx Isa.rbx 0;
        cmp_ri Isa.rcx 0;
        Jcc_l (Isa.Eq, "spin");
        mov_rr Isa.rdi Isa.rcx;
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "thread";
        (* fresh interposition site in the thread *)
        mov_ri Isa.rax Defs.sys_getuid; syscall;
        mov_ri Isa.rbx 0x9000;
        mov_ri Isa.rcx 5;
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rdi 0;
        mov_ri Isa.rax Defs.sys_exit; syscall;
      ]
  in
  let code, st, k = run ~hook prog in
  Alcotest.(check int) "thread signalled main" 5 code;
  Alcotest.(check bool) "thread's getuid interposed" true
    (List.mem Defs.sys_getuid (List.map fst (Hook.recorded trace)));
  Alcotest.(check int) "thread registered" 2
    (Hashtbl.length st.Lazypoline.known_tasks);
  (* the thread got its own gs area, distinct from the main task's *)
  let bases =
    Hashtbl.fold
      (fun _ u acc -> u.Types.ctx.Sim_cpu.Cpu.gs_base :: acc)
      k.Types.tasks []
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "two distinct gs bases" 2 (List.length bases)

let test_execve_ends_interposition_cleanly () =
  (* Interposition does not survive execve (SUD is cleared and the
     mappings are gone), but it must see the execve itself and the
     exec'd image must run unimpeded. *)
  let hook, trace = Hook.tracing () in
  let k = Kernel.create () in
  Hashtbl.replace k.Types.programs "/bin/next"
    (Loader.image_of_items
       ([ mov_ri Isa.rax Defs.sys_getuid; syscall ] @ Tutil.exit_with 8));
  let t =
    Kernel.spawn k
      (Loader.image_of_items
         [
           Label "start";
           Jmp_l "go";
           Label "path";
           Bytes "/bin/next\000";
           Label "go";
           mov_ri Isa.rax Defs.sys_getpid; syscall;
           Lea_ip (Isa.rdi, "path");
           mov_ri Isa.rsi 0; mov_ri Isa.rdx 0;
           mov_ri Isa.rax Defs.sys_execve; syscall;
         ])
  in
  ignore (Lazypoline.install k t hook);
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  Alcotest.(check int) "exec'd image ran to completion" 8 t.Types.exit_code;
  let nrs = List.map fst (Hook.recorded trace) in
  Alcotest.(check bool) "execve itself was interposed" true
    (List.mem Defs.sys_execve nrs);
  Alcotest.(check bool) "post-exec syscalls not interposed" false
    (List.mem Defs.sys_getuid nrs);
  Alcotest.(check bool) "SUD off after exec" false t.Types.sud.Types.sud_on

let test_cross_process_pipe_blocking () =
  (* Parent blocks reading a pipe inside the interposer's emulated
     syscall; the (equally interposed) child wakes it. *)
  let hook, trace = Hook.tracing () in
  let prog =
    [
      (* reserve a live stack region: locals below rsp-128 would be
         fair game for signal frames (red-zone rules) *)
      sub_ri Isa.rsp 2048;
      (* pipe(fds at rsp+64) *)
      mov_rr Isa.rdi Isa.rsp; add_ri Isa.rdi 64;
      mov_ri Isa.rax Defs.sys_pipe; syscall;
      mov_ri Isa.rax Defs.sys_fork; syscall;
      cmp_ri Isa.rax 0;
      Jcc_l (Isa.Eq, "child");
      (* parent: blocking read on the empty pipe *)
      mov_rr Isa.rbx Isa.rsp; add_ri Isa.rbx 64;
      load Isa.rdi Isa.rbx 0;
      mov_rr Isa.rsi Isa.rsp; add_ri Isa.rsi 128;
      mov_ri Isa.rdx 1;
      mov_ri Isa.rax Defs.sys_read; syscall;
      (* exit with the byte received *)
      mov_rr Isa.rbx Isa.rsp; add_ri Isa.rbx 128;
      load8 Isa.rdi Isa.rbx 0;
      mov_ri Isa.rax Defs.sys_exit_group; syscall;
      Label "child";
      (* sleep briefly so the parent really blocks, then write *)
      mov_rr Isa.rbx Isa.rsp; add_ri Isa.rbx 256;
      mov_ri Isa.rcx 0;
      store Isa.rbx 0 Isa.rcx;
      mov_ri Isa.rcx 30000;
      store Isa.rbx 8 Isa.rcx;
      mov_rr Isa.rdi Isa.rbx;
      mov_ri Isa.rsi 0;
      mov_ri Isa.rax Defs.sys_nanosleep; syscall;
      mov_rr Isa.rbx Isa.rsp; add_ri Isa.rbx 64;
      load Isa.rdi Isa.rbx 8;
      mov_rr Isa.rsi Isa.rsp; add_ri Isa.rsi 384;
      mov_ri Isa.rcx 42;
      store8 Isa.rsi 0 Isa.rcx;
      mov_ri Isa.rdx 1;
      mov_ri Isa.rax Defs.sys_write; syscall;
    ]
    @ Tutil.exit_with 0
  in
  let code, _, _ = run ~hook prog in
  Alcotest.(check int) "parent received the byte" 42 code;
  let nrs = List.map fst (Hook.recorded trace) in
  Alcotest.(check bool) "read interposed" true (List.mem Defs.sys_read nrs);
  Alcotest.(check bool) "child's write interposed" true
    (List.mem Defs.sys_write nrs);
  Alcotest.(check bool) "child's nanosleep interposed" true
    (List.mem Defs.sys_nanosleep nrs)

let test_hook_suppression_on_fast_path () =
  (* The suppression path must work identically on slow (first) and
     fast (subsequent) executions of the same site. *)
  let hook = Hook.dummy () in
  hook.Hook.on_syscall <-
    (fun c ->
      if c.Hook.nr = Defs.sys_getuid then Hook.Return 7L else Hook.Emulate);
  let prog =
    [
      mov_ri Isa.r13 0;
      mov_ri Isa.rbx 3;
      Label "loop";
      mov_ri Isa.rax Defs.sys_getuid;
      syscall;
      add_rr Isa.r13 Isa.rax;
      sub_ri Isa.rbx 1;
      cmp_ri Isa.rbx 0;
      Jcc_l (Isa.Ne, "loop");
      mov_rr Isa.rdi Isa.r13;
      mov_ri Isa.rax Defs.sys_exit_group; syscall;
    ]
  in
  let code, st, _ = run ~hook prog in
  Alcotest.(check int) "3 x fake uid 7" 21 code;
  Alcotest.(check int) "site rewritten once" 2
    st.Lazypoline.stats.Lazypoline.rewrites

let test_sigprocmask_under_interposition () =
  (* Masking must behave identically under interposition: a blocked
     USR1 stays pending until unblocked. *)
  let hook, trace = Hook.tracing () in
  let prog =
    map_globals
    @ [ sub_ri Isa.rsp 2048 ]
    @ install_handler_at ~sig_:Defs.sigusr1 ~handler_label:"handler"
        ~scratch_off:1024
    @ [
        (* mask struct in live stack (above rsp), not the red zone *)
        mov_rr Isa.rbx Isa.rsp; add_ri Isa.rbx 600;
        mov_ri64 Isa.rcx (Int64.shift_left 1L (Defs.sigusr1 - 1));
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rdi 0;
        mov_rr Isa.rsi Isa.rbx;
        mov_ri Isa.rdx 0;
        mov_ri Isa.rax Defs.sys_rt_sigprocmask; syscall;
      ]
    @ kill_self Defs.sigusr1
    @ [
        mov_ri Isa.rbx 0x9000;
        load Isa.r13 Isa.rbx 0 (* must still be 0 *);
        mov_rr Isa.rbx Isa.rsp; add_ri Isa.rbx 600;
        mov_ri64 Isa.rcx (Int64.shift_left 1L (Defs.sigusr1 - 1));
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rdi 1;
        mov_rr Isa.rsi Isa.rbx;
        mov_ri Isa.rdx 0;
        mov_ri Isa.rax Defs.sys_rt_sigprocmask; syscall;
        (* handler has now run *)
        mov_ri Isa.rbx 0x9000;
        load Isa.rdi Isa.rbx 0;
        mov_ri Isa.rcx 10;
        i (Isa.Alu_rr (Isa.Mul, Isa.r13, Isa.rcx));
        add_rr Isa.rdi Isa.r13;
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "handler";
        mov_ri Isa.rbx 0x9000;
        mov_ri Isa.rcx 1;
        store Isa.rbx 0 Isa.rcx;
        ret;
      ]
  in
  let code, _, _ = run ~hook prog in
  Alcotest.(check int) "deferred then delivered" 1 code;
  Alcotest.(check bool) "sigprocmask interposed" true
    (List.mem Defs.sys_rt_sigprocmask (List.map fst (Hook.recorded trace)))

let test_vfork_interposed_like_fork () =
  let hook, trace = Hook.tracing () in
  let prog =
    [
      mov_ri Isa.rax Defs.sys_vfork; syscall;
      cmp_ri Isa.rax 0;
      Jcc_l (Isa.Eq, "child");
      mov_ri64 Isa.rdi (-1L);
      mov_ri Isa.rsi 0; mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_wait4; syscall;
    ]
    @ Tutil.exit_with 0
    @ [ Label "child"; mov_ri Isa.rax Defs.sys_getuid; syscall ]
    @ Tutil.exit_with 0
  in
  let code, _, _ = run ~hook prog in
  Alcotest.(check int) "ok" 0 code;
  let nrs = List.map fst (Hook.recorded trace) in
  Alcotest.(check bool) "vfork traced" true (List.mem Defs.sys_vfork nrs);
  Alcotest.(check bool) "vfork child interposed" true
    (List.mem Defs.sys_getuid nrs)

let test_sigaction_old_handler_shadowed () =
  (* The app must see its own previous handler through the old-act
     pointer, never the interposer's wrapper. *)
  let prog =
    [
      Label "start";
      (* first sigaction: install h1 *)
      mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 1024;
      Lea_ip (Isa.rcx, "h1");
      store Isa.rbx 0 Isa.rcx;
      mov_ri Isa.rcx 0;
      store Isa.rbx 8 Isa.rcx; store Isa.rbx 16 Isa.rcx;
      store Isa.rbx 24 Isa.rcx;
      mov_ri Isa.rdi Defs.sigusr1;
      mov_rr Isa.rsi Isa.rbx;
      mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_rt_sigaction; syscall;
      (* second sigaction: install h2, read back old into rsp-2048 *)
      Lea_ip (Isa.rcx, "h2");
      store Isa.rbx 0 Isa.rcx;
      mov_rr Isa.rdx Isa.rsp; sub_ri Isa.rdx 2048;
      mov_ri Isa.rdi Defs.sigusr1;
      mov_rr Isa.rsi Isa.rbx;
      mov_ri Isa.rax Defs.sys_rt_sigaction; syscall;
      (* compare old handler with &h1 *)
      mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 2048;
      load Isa.rcx Isa.rbx 0;
      Lea_ip (Isa.rdx, "h1");
      cmp_rr Isa.rcx Isa.rdx;
      Jcc_l (Isa.Eq, "good");
    ]
    @ Tutil.exit_with 1
    @ [ Label "good" ]
    @ Tutil.exit_with 0
    @ [ Label "h1"; ret; Label "h2"; ret ]
  in
  let code, _, _ = run prog in
  Alcotest.(check int) "old act = app's h1, not the wrapper" 0 code


(* The %gs xsave stack keeps its depth word, drops pushes past its
   slots (counting them), restores in LIFO order bit for bit, ignores a
   pop at depth 0, and clamps a guest-written x87 depth. *)
let test_xstack_depth_and_overflow () =
  let module Cpu = Sim_cpu.Cpu in
  let module L = Lazypoline.Layout in
  let k = Kernel.create () in
  let t = Kernel.spawn k (Loader.image_of_items (Tutil.exit_with 0)) in
  let st = Lazypoline.install ~preserve_xstate:true k t (Hook.dummy ()) in
  let c = t.Types.ctx in
  let depth () =
    Int64.to_int
      (Sim_mem.Mem.peek_u64 t.Types.mem (c.gs_base + L.gs_xstack_depth))
  in
  let mark d =
    for x = 0 to 15 do
      Cpu.set_xmm_lo c.x x (Int64.of_int ((d * 100) + x));
      Cpu.set_xmm_hi c.x x (Int64.of_int (-((d * 100) + x)))
    done;
    Cpu.set_st c.x 7 (Int64.of_int d);
    c.x.st_sp <- d mod 9
  in
  let image () = Bytes.to_string (Cpu.xstate_image c.x) in
  let saved = Array.make (L.gs_xstack_slots + 1) "" in
  for d = 1 to L.gs_xstack_slots do
    mark d;
    saved.(d) <- image ();
    Lazypoline.xstate_push st t;
    Alcotest.(check int) "depth after push" d (depth ())
  done;
  mark 99;
  Lazypoline.xstate_push st t;
  Alcotest.(check int) "full stack keeps its depth" L.gs_xstack_slots
    (depth ());
  Alcotest.(check int) "overflow counted" 1
    st.Lazypoline.stats.xstate_overflows;
  for d = L.gs_xstack_slots downto 1 do
    Lazypoline.xstate_pop st t;
    Alcotest.(check string) (Printf.sprintf "slot %d restored" d) saved.(d)
      (image ());
    Alcotest.(check int) "depth after pop" (d - 1) (depth ())
  done;
  let before = image () in
  Lazypoline.xstate_pop st t;
  Alcotest.(check string) "pop at depth 0 is a no-op" before (image ());
  Alcotest.(check int) "depth stays 0" 0 (depth ());
  (* a guest store into the saved x87 depth cannot push it past 8 *)
  Lazypoline.xstate_push st t;
  Sim_mem.Mem.poke_u64 t.Types.mem
    (c.gs_base + L.gs_xstack_base + 320)
    15L;
  Lazypoline.xstate_pop st t;
  Alcotest.(check int) "guest-written depth clamped" 8 c.x.st_sp

let tests =
  [
    Alcotest.test_case "nested wrapped signals" `Quick
      test_nested_wrapped_signals;
    Alcotest.test_case "CLONE_VM thread interposed" `Quick
      test_thread_clone_vm_interposed;
    Alcotest.test_case "execve ends interposition cleanly" `Quick
      test_execve_ends_interposition_cleanly;
    Alcotest.test_case "cross-process pipe blocking" `Quick
      test_cross_process_pipe_blocking;
    Alcotest.test_case "suppression on fast path" `Quick
      test_hook_suppression_on_fast_path;
    Alcotest.test_case "sigprocmask under interposition" `Quick
      test_sigprocmask_under_interposition;
    Alcotest.test_case "vfork child interposed" `Quick
      test_vfork_interposed_like_fork;
    Alcotest.test_case "sigaction old-handler shadowing" `Quick
      test_sigaction_old_handler_shadowed;
      Alcotest.test_case "xsave stack depth and overflow" `Quick
      test_xstack_depth_and_overflow;
  ]
