(** Signal machinery tests: sigaction, handler execution, sigreturn,
    masking, fatal defaults, and xstate preservation across handlers. *)

open Sim_isa
open Sim_asm.Asm
open Sim_kernel

(* Common prologue: map a RW page at 0x9000 for globals. *)
let map_globals =
  [
    mov_ri Isa.rdi 0x9000; mov_ri Isa.rsi 4096;
    mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
    mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
    mov_ri64 Isa.r8 (-1L); mov_ri Isa.r9 0;
    mov_ri Isa.rax Defs.sys_mmap; syscall;
  ]

(* Build the sigaction struct at rsp-512 pointing to labels
   "handler" and "restorer", then rt_sigaction(sig, act, 0). *)
let install_handler sig_ =
  [
    mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 512;
    Lea_ip (Isa.rcx, "handler");
    store Isa.rbx 0 Isa.rcx;
    mov_ri Isa.rcx 0;
    store Isa.rbx 8 Isa.rcx;
    store Isa.rbx 16 Isa.rcx;
    Lea_ip (Isa.rcx, "restorer");
    store Isa.rbx 24 Isa.rcx;
    mov_ri Isa.rdi sig_;
    mov_rr Isa.rsi Isa.rbx;
    mov_ri Isa.rdx 0;
    mov_ri Isa.rax Defs.sys_rt_sigaction;
    syscall;
  ]

let restorer_block =
  [ Label "restorer"; mov_ri Isa.rax Defs.sys_rt_sigreturn; syscall ]

let kill_self sig_ =
  [
    mov_ri Isa.rax Defs.sys_getpid; syscall;
    mov_rr Isa.rdi Isa.rax;
    mov_ri Isa.rsi sig_;
    mov_ri Isa.rax Defs.sys_kill; syscall;
  ]

let test_handler_runs_and_returns () =
  let prog =
    map_globals
    @ install_handler Defs.sigusr1
    @ kill_self Defs.sigusr1
    @ [
        (* after handler returned: exit with the global's value *)
        mov_ri Isa.rbx 0x9000;
        load Isa.rdi Isa.rbx 0;
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "handler";
        mov_ri Isa.rbx 0x9000;
        mov_ri Isa.rcx 33;
        store Isa.rbx 0 Isa.rcx;
        ret;
      ]
    @ restorer_block
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "handler wrote global" 33 code

let test_handler_preserves_registers () =
  (* The interrupted context's registers survive the handler, which
     clobbers them wildly. *)
  let prog =
    map_globals
    @ install_handler Defs.sigusr1
    @ [ mov_ri Isa.r14 777 ]
    @ kill_self Defs.sigusr1
    @ [
        mov_rr Isa.rdi Isa.r14;
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "handler";
        mov_ri Isa.r14 0;
        mov_ri Isa.r15 0;
        ret;
      ]
    @ restorer_block
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "r14 preserved" 777 code

let test_handler_preserves_xmm () =
  (* xstate is saved/restored in the signal frame by the kernel. *)
  let prog =
    map_globals
    @ install_handler Defs.sigusr1
    @ [ mov_ri Isa.rcx 4242; i (Isa.Movq_xr (7, Isa.rcx)) ]
    @ kill_self Defs.sigusr1
    @ [
        i (Isa.Movq_rx (Isa.rdi, 7));
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "handler";
        mov_ri Isa.rcx 1;
        i (Isa.Movq_xr (7, Isa.rcx));
        ret;
      ]
    @ restorer_block
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "xmm7 preserved" 4242 code

let test_default_action_kills () =
  let prog = kill_self Defs.sigusr2 @ Tutil.exit_with 0 in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "killed" (128 + Defs.sigusr2) code

let test_sigchld_ignored_by_default () =
  let prog = kill_self Defs.sigchld @ Tutil.exit_with 9 in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "survived" 9 code

let test_sig_ign () =
  (* Set SIGUSR1 to SIG_IGN, then kill self: survives. *)
  let prog =
    [
      mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 512;
      mov_ri Isa.rcx 1 (* SIG_IGN *);
      store Isa.rbx 0 Isa.rcx;
      mov_ri Isa.rcx 0;
      store Isa.rbx 8 Isa.rcx; store Isa.rbx 16 Isa.rcx;
      store Isa.rbx 24 Isa.rcx;
      mov_ri Isa.rdi Defs.sigusr1;
      mov_rr Isa.rsi Isa.rbx;
      mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_rt_sigaction; syscall;
    ]
    @ kill_self Defs.sigusr1
    @ Tutil.exit_with 4
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "ignored" 4 code

let test_sigprocmask_defers () =
  (* Block USR1, send it, then observe it is pending only after
     unblocking (handler sets the global). *)
  let prog =
    map_globals
    @ install_handler Defs.sigusr1
    @ [
        (* mask = 1 << (USR1-1) at rsp-600 *)
        mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 600;
        mov_ri64 Isa.rcx (Int64.shift_left 1L (Defs.sigusr1 - 1));
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rdi 0 (* SIG_BLOCK *);
        mov_rr Isa.rsi Isa.rbx;
        mov_ri Isa.rdx 0;
        mov_ri Isa.rax Defs.sys_rt_sigprocmask; syscall;
      ]
    @ kill_self Defs.sigusr1
    @ [
        (* handler must NOT have run: global still 0 *)
        mov_ri Isa.rbx 0x9000;
        load Isa.r13 Isa.rbx 0;
        (* unblock *)
        mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 600;
        mov_ri Isa.rdi 1 (* SIG_UNBLOCK *);
        mov_rr Isa.rsi Isa.rbx;
        mov_ri Isa.rdx 0;
        mov_ri Isa.rax Defs.sys_rt_sigprocmask; syscall;
        (* now the handler ran: exit(10*was_pending_before + global) *)
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
    @ restorer_block
  in
  let code, _, _ = Tutil.run_asm prog in
  (* r13 (global before unblock) = 0, global after = 1 -> exit 1 *)
  Alcotest.(check int) "deferred until unblock" 1 code

let test_nested_handler_mask () =
  (* While the USR1 handler runs, USR1 is masked: a second kill inside
     the handler defers until after sigreturn; global counts 2 in the
     end but never recurses (depth tracked at 0x9008). *)
  let prog =
    map_globals
    @ install_handler Defs.sigusr1
    @ kill_self Defs.sigusr1
    @ [
        (* after first handler completes, the deferred one runs too;
           then exit(count + 10*maxdepth) *)
        mov_ri Isa.rbx 0x9000;
        load Isa.rdi Isa.rbx 0;
        load Isa.rcx Isa.rbx 8;
        mov_ri Isa.rdx 10;
        i (Isa.Alu_rr (Isa.Mul, Isa.rcx, Isa.rdx));
        add_rr Isa.rdi Isa.rcx;
        mov_ri Isa.rax Defs.sys_exit_group; syscall;
        Label "handler";
        (* count++ *)
        mov_ri Isa.rbx 0x9000;
        load Isa.rcx Isa.rbx 0;
        add_ri Isa.rcx 1;
        store Isa.rbx 0 Isa.rcx;
        (* depth = max(depth, count-in-flight): we approximate by
           recording 1 on entry; a recursive entry would record 2 via
           the in-flight counter at 0x9010 *)
        load Isa.rcx Isa.rbx 16;
        add_ri Isa.rcx 1;
        store Isa.rbx 16 Isa.rcx;
        load Isa.rdx Isa.rbx 8;
        cmp_rr Isa.rcx Isa.rdx;
        Jcc_l (Isa.Le, "no_new_max");
        store Isa.rbx 8 Isa.rcx;
        Label "no_new_max";
        (* second kill only on first invocation *)
        load Isa.rcx Isa.rbx 0;
        cmp_ri Isa.rcx 1;
        Jcc_l (Isa.Ne, "skip_rekill");
      ]
    @ kill_self Defs.sigusr1
    @ [
        Label "skip_rekill";
        (* in-flight-- *)
        mov_ri Isa.rbx 0x9000;
        load Isa.rcx Isa.rbx 16;
        sub_ri Isa.rcx 1;
        store Isa.rbx 16 Isa.rcx;
        ret;
      ]
    @ restorer_block
  in
  let code, _, _ = Tutil.run_asm prog in
  (* count=2, maxdepth=1 -> 2 + 10 = 12 *)
  Alcotest.(check int) "ran twice, never nested" 12 code

(* ------------------------------------------------------------------ *)
(* SA_RESTART vs -EINTR for blocking syscalls, across every
   interposition mechanism.

   The interrupting signal comes from a forced chaos block-signal
   injection ('b', keyed on the count of completed app syscalls), so
   the interruption lands at the same application event under raw and
   under every interposer.  Each program encodes its outcome as
   exit(10 * handler_hits - ret):
   - an interrupted non-restarted wait returns -EINTR: 10 + 4 = 14;
   - a transparently restarted read/write completes with 1: 10 - 1 = 9. *)

module D = Harness.Divergence
module C = Sim_chaos.Chaos

let g2 = 0x9000

let all_mechs = [ D.Raw; D.Sud; D.Zpoline; D.Lazypoline_m; D.Seccomp; D.Ptrace ]

(* Globals staging, NOT below rsp: a sigflow interposer's SIGSYS frame
   lands below the interrupted rsp and would clobber it. *)
let map_glob2 =
  [
    mov_ri Isa.rdi g2; mov_ri Isa.rsi 8192;
    mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
    mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
    mov_ri64 Isa.r8 (-1L); mov_ri Isa.r9 0;
    mov_ri Isa.rax Defs.sys_mmap; syscall;
  ]

let install_g ~flags sig_ =
  [
    mov_ri Isa.rbx (g2 + 0x140);
    Lea_ip (Isa.rcx, "handler");
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
    mov_ri Isa.rax Defs.sys_rt_sigaction; syscall;
  ]

let handler_block =
  [
    Label "handler";
    mov_ri Isa.rbx g2;
    load Isa.rcx Isa.rbx 0;
    add_ri Isa.rcx 1;
    store Isa.rbx 0 Isa.rcx;
    ret;
  ]
  @ restorer_block

(* exit(10 * handler_hits - rax) *)
let encode_exit =
  [
    mov_rr Isa.r12 Isa.rax;
    mov_ri Isa.rbx g2;
    load Isa.rcx Isa.rbx 0;
    mov_ri Isa.rdx 10;
    i (Isa.Alu_rr (Isa.Mul, Isa.rcx, Isa.rdx));
    mov_rr Isa.rdi Isa.rcx;
    sub_rr Isa.rdi Isa.r12;
    mov_ri Isa.rax Defs.sys_exit_group; syscall;
  ]

let pipe_fds = [ mov_ri Isa.rdi (g2 + 0x20); mov_ri Isa.rax Defs.sys_pipe; syscall ]

let clone_thread =
  [
    mov_ri Isa.rdi
      (Defs.clone_vm lor Defs.clone_files lor Defs.clone_sighand
     lor Defs.clone_thread);
    mov_ri Isa.rsi (g2 + 8192 - 256);
    mov_ri Isa.rdx 0; mov_ri Isa.r10 0; mov_ri Isa.r8 0;
    mov_ri Isa.rax Defs.sys_clone; syscall;
    cmp_ri Isa.rax 0;
    Jcc_l (Isa.Eq, "thread");
  ]

(* timespec {0, 5ms} at g2+0xC0: the helper thread sleeps this long so
   the signal-interruption path resolves before it supplies data. *)
let stage_child_delay =
  [
    mov_ri Isa.rbx (g2 + 0xC0);
    mov_ri Isa.rcx 0;
    store Isa.rbx 0 Isa.rcx;
    mov_ri Isa.rcx 5_000_000;
    store Isa.rbx 8 Isa.rcx;
  ]

let blocksig ~index =
  [
    {
      C.j_klass = C.Blocksig; j_tid = 1; j_index = index;
      j_arg = Defs.sigusr1; j_arg2 = 0L;
    };
  ]

let run_mech mech ~injections items =
  let k = Kernel.create () in
  Kernel.attach_chaos k (C.forced injections);
  let img = Loader.image_of_items items in
  let t = Kernel.spawn k img in
  D.install mech k t (Lazypoline.Hook.dummy ());
  if not (Kernel.run_until_exit ~max_slices:400_000 k) then
    Alcotest.fail "program did not terminate";
  t.Types.exit_code

let check_mechs msg expected ~injections items =
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "%s under %s" msg (D.mech_name m))
        expected
        (run_mech m ~injections items))
    all_mechs

let test_read_eintr () =
  (* A blocking read with no SA_RESTART returns -EINTR. *)
  let prog =
    map_glob2 @ pipe_fds
    @ install_g ~flags:0 Defs.sigusr1
    @ [
        mov_ri Isa.rbx (g2 + 0x20);
        load Isa.rdi Isa.rbx 0;
        mov_ri Isa.rsi (g2 + 0x80);
        mov_ri Isa.rdx 8;
        mov_ri Isa.rax Defs.sys_read; syscall;
      ]
    @ encode_exit @ handler_block
  in
  check_mechs "read -EINTR" 14 ~injections:(blocksig ~index:2) prog

let test_read_restart () =
  (* With SA_RESTART the read transparently restarts and completes
     once a helper thread supplies a byte. *)
  let prog =
    map_glob2 @ pipe_fds
    @ install_g ~flags:Defs.sa_restart Defs.sigusr1
    @ stage_child_delay @ clone_thread
    @ [
        mov_ri Isa.rbx (g2 + 0x20);
        load Isa.rdi Isa.rbx 0;
        mov_ri Isa.rsi (g2 + 0x80);
        mov_ri Isa.rdx 8;
        mov_ri Isa.rax Defs.sys_read; syscall;
      ]
    @ encode_exit
    @ [
        Label "thread";
        mov_ri Isa.rdi (g2 + 0xC0);
        mov_ri Isa.rsi 0;
        mov_ri Isa.rax Defs.sys_nanosleep; syscall;
        mov_ri Isa.rbx (g2 + 0x20);
        load Isa.rdi Isa.rbx 8;
        mov_ri Isa.rsi (g2 + 0xE0);
        mov_ri Isa.rdx 1;
        mov_ri Isa.rax Defs.sys_write; syscall;
        mov_ri Isa.rdi 0;
        mov_ri Isa.rax Defs.sys_exit; syscall;
      ]
    @ handler_block
  in
  check_mechs "read restarted" 9 ~injections:(blocksig ~index:3) prog

let fill_pipe =
  (* 16 x 4096 fills the 64KiB pipe buffer exactly. *)
  [
    mov_ri Isa.rbx (g2 + 0x20);
    load Isa.r14 Isa.rbx 8;
    mov_ri Isa.r13 16;
    Label "fill";
    mov_rr Isa.rdi Isa.r14;
    mov_ri Isa.rsi g2;
    mov_ri Isa.rdx 4096;
    mov_ri Isa.rax Defs.sys_write; syscall;
    sub_ri Isa.r13 1;
    cmp_ri Isa.r13 0;
    Jcc_l (Isa.Ne, "fill");
  ]

let blocked_write_1 =
  [
    mov_rr Isa.rdi Isa.r14;
    mov_ri Isa.rsi g2;
    mov_ri Isa.rdx 1;
    mov_ri Isa.rax Defs.sys_write; syscall;
  ]

let test_write_eintr () =
  let prog =
    map_glob2 @ pipe_fds
    @ install_g ~flags:0 Defs.sigusr1
    @ fill_pipe @ blocked_write_1 @ encode_exit @ handler_block
  in
  check_mechs "write -EINTR" 14 ~injections:(blocksig ~index:18) prog

let test_write_restart () =
  let prog =
    map_glob2 @ pipe_fds
    @ install_g ~flags:Defs.sa_restart Defs.sigusr1
    @ stage_child_delay @ clone_thread @ fill_pipe @ blocked_write_1
    @ encode_exit
    @ [
        Label "thread";
        mov_ri Isa.rdi (g2 + 0xC0);
        mov_ri Isa.rsi 0;
        mov_ri Isa.rax Defs.sys_nanosleep; syscall;
        mov_ri Isa.rbx (g2 + 0x20);
        load Isa.rdi Isa.rbx 0;
        mov_ri Isa.rsi (g2 + 0x100);
        mov_ri Isa.rdx 4096;
        mov_ri Isa.rax Defs.sys_read; syscall;
        mov_ri Isa.rdi 0;
        mov_ri Isa.rax Defs.sys_exit; syscall;
      ]
    @ handler_block
  in
  check_mechs "write restarted" 9 ~injections:(blocksig ~index:19) prog

let test_nanosleep_eintr () =
  (* nanosleep is not restartable: -EINTR even under SA_RESTART. *)
  let prog =
    map_glob2
    @ install_g ~flags:Defs.sa_restart Defs.sigusr1
    @ [
        mov_ri Isa.rbx (g2 + 0xC0);
        mov_ri Isa.rcx 5;
        store Isa.rbx 0 Isa.rcx;
        mov_ri Isa.rcx 0;
        store Isa.rbx 8 Isa.rcx;
        mov_ri Isa.rdi (g2 + 0xC0);
        mov_ri Isa.rsi 0;
        mov_ri Isa.rax Defs.sys_nanosleep; syscall;
      ]
    @ encode_exit @ handler_block
  in
  check_mechs "nanosleep -EINTR" 14 ~injections:(blocksig ~index:1) prog

let test_futex_eintr () =
  (* FUTEX_WAIT is not restartable here either. *)
  let prog =
    map_glob2
    @ install_g ~flags:Defs.sa_restart Defs.sigusr1
    @ [
        mov_ri Isa.rdi (g2 + 0x40);
        mov_ri Isa.rsi Defs.futex_wait;
        mov_ri Isa.rdx 0;
        mov_ri Isa.r10 0;
        mov_ri Isa.rax Defs.sys_futex; syscall;
      ]
    @ encode_exit @ handler_block
  in
  check_mechs "futex -EINTR" 14 ~injections:(blocksig ~index:1) prog

let test_epoll_eintr () =
  (* epoll_wait is never restarted, matching signal(7). *)
  let prog =
    map_glob2
    @ install_g ~flags:Defs.sa_restart Defs.sigusr1
    @ [
        mov_ri Isa.rdi 8;
        mov_ri Isa.rax Defs.sys_epoll_create; syscall;
        mov_rr Isa.rdi Isa.rax;
        mov_ri Isa.rsi (g2 + 0x100);
        mov_ri Isa.rdx 8;
        mov_ri64 Isa.r10 (-1L);
        mov_ri Isa.rax Defs.sys_epoll_wait; syscall;
      ]
    @ encode_exit @ handler_block
  in
  check_mechs "epoll_wait -EINTR" 14 ~injections:(blocksig ~index:2) prog


(* Regression: the x87 depth in a signal frame is guest-writable.  A
   handler that stores 15 there used to make the next x87 pop index
   past the stack and raise [Invalid_argument] out of the CPU. *)
let test_frame_st_sp_clamped () =
  let st_sp_slot = Ksignal.uc_xstate_off + 320 in
  let prog =
    map_globals
    @ install_handler Defs.sigusr1
    @ kill_self Defs.sigusr1
    @ [ i Isa.Faddp ]
    @ Tutil.exit_with 0
    @ [
        Label "handler";
        mov_ri Isa.rcx 15;
        store Isa.rdx st_sp_slot Isa.rcx;
        ret;
      ]
    @ restorer_block
  in
  let code, _, t = Tutil.run_asm prog in
  Alcotest.(check int) "faddp after sigreturn" 0 code;
  Alcotest.(check int) "depth clamped, then popped" 7
    t.Types.ctx.Sim_cpu.Cpu.x.st_sp

(* Fill every piece of state a frame carries with distinct values. *)
let fill_state (t : Types.task) seed =
  let module Cpu = Sim_cpu.Cpu in
  let c = t.Types.ctx in
  let v i = Int64.(add (mul (of_int (seed + i)) 0x9E37_79B9_7F4A_7C15L) 1L) in
  for r = 0 to 15 do
    Cpu.poke_reg c r (v r)
  done;
  c.rip <- 0x40_1234 + seed;
  c.zf <- seed land 1 = 0;
  c.sf <- seed land 2 = 0;
  c.cf <- seed land 4 = 0;
  for x = 0 to 15 do
    Cpu.set_xmm_lo c.x x (v (16 + x));
    Cpu.set_xmm_hi c.x x (v (32 + x))
  done;
  for j = 0 to 7 do
    Cpu.set_st c.x j (v (48 + j))
  done;
  c.x.st_sp <- seed mod 9;
  c.pkru <- (seed * 4) land 0xFFFF;
  t.Types.sigmask <- Int64.of_int (seed land 0xFF)

type snapshot = {
  regs : string;
  rip : int;
  flags : int;
  xs : string;
  pkru : int;
  mask : int64;
}

let snapshot (t : Types.task) =
  let module Cpu = Sim_cpu.Cpu in
  let c = t.Types.ctx in
  {
    regs = Bytes.to_string c.regs;
    rip = c.rip;
    flags = Ksignal.flags_word c;
    xs = Bytes.to_string (Cpu.xstate_image c.x);
    pkru = c.pkru;
    mask = t.Types.sigmask;
  }

let sigusr1_info =
  { Types.si_signo = Defs.sigusr1; si_code = 0; si_call_addr = 0;
    si_syscall = 0 }

(* Stack of two pages at [stack]; the frame base lands [below] bytes
   under the seam between them. *)
let frame_task ?(map_low = true) ?(map_high = true) ~below () =
  let k = Kernel.create () in
  let t = Kernel.spawn k (Loader.image_of_items (Tutil.exit_with 0)) in
  let stack = 0x7000_0000 in
  let seam = stack + Sim_mem.Mem.page_size in
  if map_low then
    Sim_mem.Mem.map t.Types.mem ~addr:stack ~len:Sim_mem.Mem.page_size
      ~perm:Sim_mem.Mem.rw;
  if map_high then
    Sim_mem.Mem.map t.Types.mem ~addr:seam ~len:Sim_mem.Mem.page_size
      ~perm:Sim_mem.Mem.rw;
  t.Types.sighand.(Defs.sigusr1) <-
    { Types.sa_handler = 0x40_2000L; sa_mask = 0x300L; sa_flags = 0L;
      sa_restorer = 0x40_3000L };
  let f = seam - below in
  (k, t, f, f + Ksignal.redzone + Ksignal.frame_size)

(* push_frame then sigreturn restores GPRs, flags, mask, xstate and
   pkru bit for bit, wherever the page seam cuts the frame: none,
   the GPR block, the xstate, the pkru word. *)
let test_frame_roundtrip () =
  let module Cpu = Sim_cpu.Cpu in
  List.iteri
    (fun n below ->
      let k, t, f, sp = frame_task ~below () in
      fill_state t (n + 1);
      Cpu.poke_reg_int t.Types.ctx Isa.rsp sp;
      let before = snapshot t in
      Ksignal.push_frame k t Defs.sigusr1 sigusr1_info;
      let c = t.Types.ctx in
      let reg r = Cpu.peek_reg_int c r in
      Alcotest.(check int) "handler rsp is the frame" f (reg Isa.rsp);
      Alcotest.(check int) "handler rip" 0x40_2000 c.rip;
      Alcotest.(check int) "rdx = &ucontext" (f + 40) (reg Isa.rdx);
      Alcotest.(check string) "GPR block saved" before.regs
        (Sim_mem.Mem.peek_bytes t.Types.mem (f + 40) 128);
      (* the handler clobbers everything, then returns to the restorer *)
      fill_state t (n + 100);
      Cpu.poke_reg_int c Isa.rsp (f + 8);
      Ksignal.sigreturn k t;
      let after = snapshot t in
      let tag s = Printf.sprintf "%s (frame %d below the seam)" s below in
      Alcotest.(check string) (tag "GPRs") before.regs after.regs;
      Alcotest.(check int) (tag "rip") before.rip after.rip;
      Alcotest.(check int) (tag "flags") before.flags after.flags;
      Alcotest.(check string) (tag "xstate") before.xs after.xs;
      Alcotest.(check int) (tag "pkru") before.pkru after.pkru;
      Alcotest.(check int64) (tag "sigmask") before.mask after.mask;
      Alcotest.(check bool) (tag "still runnable") true
        (t.Types.state = Types.Runnable))
    [ 0xE00; 96; 352; 16 ]

(* A frame that does not fit in mapped stack kills the task with
   SIGSEGV — whether the lower page, the upper page or both are
   missing. *)
let test_frame_unmapped_stack_kills () =
  List.iter
    (fun (map_low, map_high, below) ->
      let k, t, _, sp = frame_task ~map_low ~map_high ~below () in
      Sim_cpu.Cpu.poke_reg_int t.Types.ctx Isa.rsp sp;
      (match Ksignal.push_frame k t Defs.sigusr1 sigusr1_info with
      | () -> Alcotest.fail "frame pushed onto unmapped stack"
      | exception Ksignal.Killed_by_signal (_, s) ->
          Alcotest.(check int) "SIGSEGV" Defs.sigsegv s);
      Alcotest.(check int) "exit code" (128 + Defs.sigsegv) t.Types.exit_code;
      Alcotest.(check bool) "zombie" true (t.Types.state = Types.Zombie))
    [ (false, false, 96); (false, true, 96); (true, false, 96) ]

let tests =
  [
    Alcotest.test_case "handler runs and returns" `Quick
      test_handler_runs_and_returns;
    Alcotest.test_case "handler preserves GPRs" `Quick
      test_handler_preserves_registers;
    Alcotest.test_case "handler preserves xmm" `Quick
      test_handler_preserves_xmm;
    Alcotest.test_case "default action kills" `Quick test_default_action_kills;
    Alcotest.test_case "SIGCHLD default-ignored" `Quick
      test_sigchld_ignored_by_default;
    Alcotest.test_case "SIG_IGN" `Quick test_sig_ign;
    Alcotest.test_case "sigprocmask defers" `Quick test_sigprocmask_defers;
    Alcotest.test_case "no recursive delivery while masked" `Quick
      test_nested_handler_mask;
    Alcotest.test_case "read -EINTR (all mechanisms)" `Quick test_read_eintr;
    Alcotest.test_case "read SA_RESTART (all mechanisms)" `Quick
      test_read_restart;
    Alcotest.test_case "write -EINTR (all mechanisms)" `Quick test_write_eintr;
    Alcotest.test_case "write SA_RESTART (all mechanisms)" `Quick
      test_write_restart;
    Alcotest.test_case "nanosleep -EINTR despite SA_RESTART" `Quick
      test_nanosleep_eintr;
    Alcotest.test_case "futex -EINTR despite SA_RESTART" `Quick
      test_futex_eintr;
    Alcotest.test_case "epoll_wait -EINTR despite SA_RESTART" `Quick
      test_epoll_eintr;
    Alcotest.test_case "frame x87 depth clamped on sigreturn" `Quick
      test_frame_st_sp_clamped;
    Alcotest.test_case "frame round trip is bit-identical" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frame on unmapped stack kills" `Quick
      test_frame_unmapped_stack_kills;
  ]
