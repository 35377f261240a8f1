(** Kernel integration tests driven by small assembly programs. *)

open Sim_isa
open Sim_asm.Asm
open Sim_kernel

let test_exit_code () = Tutil.check_exit "exit 7" 7 (Tutil.exit_with 7)

let test_getpid_gettid () =
  (* exit(getpid() == gettid() && getpid() == 1 ? 0 : 1)  — first task
     has tid 1 *)
  Tutil.check_exit "pid/tid" 0
    ([ mov_ri Isa.rax Defs.sys_getpid; syscall; mov_rr Isa.rbx Isa.rax ]
    @ [ mov_ri Isa.rax Defs.sys_gettid; syscall ]
    @ [
        cmp_rr Isa.rax Isa.rbx;
        Jcc_l (Isa.Ne, "bad");
        cmp_ri Isa.rax 1;
        Jcc_l (Isa.Ne, "bad");
      ]
    @ Tutil.exit_with 0
    @ [ Label "bad" ]
    @ Tutil.exit_with 1)

let test_enosys () =
  (* syscall 500 returns -ENOSYS *)
  Tutil.check_exit "enosys" Defs.enosys
    ([ mov_ri Isa.rax 500; syscall;
       (* negate *) mov_ri Isa.rbx 0; sub_rr Isa.rbx Isa.rax;
       mov_rr Isa.rdi Isa.rbx; mov_ri Isa.rax Defs.sys_exit_group; syscall ])

let test_console_write () =
  Buffer.clear Kernel.console;
  let code, _, _ =
    Tutil.run_asm
      ([
         Label "start";
         Jmp_l "go";
         Label "msg";
         Bytes "hi!\n";
         Label "go";
         mov_ri Isa.rdi 1;
         Lea_ip (Isa.rsi, "msg");
         mov_ri Isa.rdx 4;
         mov_ri Isa.rax Defs.sys_write;
         syscall;
       ]
      @ Tutil.exit_with 0)
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string) "console" "hi!\n" (Buffer.contents Kernel.console)

(* msg data segment: note code pages are r-x, so data for writing must
   live elsewhere; reading strings from code pages is fine. *)

let test_mmap_mprotect_write () =
  (* mmap 2 pages RW at fixed 0x9000, write, mprotect R, write -> SIGSEGV
     kills with 128+11 *)
  let prog =
    [
      (* mmap(0x9000, 8192, RW, FIXED|ANON, -1, 0) *)
      mov_ri Isa.rdi 0x9000;
      mov_ri Isa.rsi 8192;
      mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
      mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
      mov_ri64 Isa.r8 (-1L);
      mov_ri Isa.r9 0;
      mov_ri Isa.rax Defs.sys_mmap;
      syscall;
      (* store to it *)
      mov_ri Isa.rbx 0x9000;
      mov_ri Isa.rcx 0x55;
      store Isa.rbx 0 Isa.rcx;
      (* mprotect read-only *)
      mov_ri Isa.rdi 0x9000;
      mov_ri Isa.rsi 8192;
      mov_ri Isa.rdx Defs.prot_read;
      mov_ri Isa.rax Defs.sys_mprotect;
      syscall;
      (* this store faults *)
      store Isa.rbx 0 Isa.rcx;
    ]
    @ Tutil.exit_with 0
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "killed by SIGSEGV" (128 + Defs.sigsegv) code

let test_fork_wait () =
  (* parent forks; child exits 5; parent waits and exits child's code *)
  let prog =
    [
      mov_ri Isa.rax Defs.sys_fork;
      syscall;
      cmp_ri Isa.rax 0;
      Jcc_l (Isa.Eq, "child");
      (* parent: wait4(-1, 0x8000? need writable memory) -> use stack *)
      mov_ri64 Isa.rdi (-1L);
      mov_rr Isa.rsi Isa.rsp;
      sub_ri Isa.rsi 256;
      mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_wait4;
      syscall;
      (* status = *(rsi) >> 8 *)
      mov_rr Isa.rbx Isa.rsp;
      sub_ri Isa.rbx 256;
      load Isa.rdi Isa.rbx 0;
      i (Isa.Shift (Isa.Shr, Isa.rdi, 8));
      mov_ri Isa.rax Defs.sys_exit_group;
      syscall;
      Label "child";
    ]
    @ Tutil.exit_with 5
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "parent saw child's status" 5 code

let test_fork_memory_isolated () =
  (* child increments a global; parent's copy unchanged.  Parent exits
     with its own value. *)
  let prog =
    [
      (* global at 0x9000 *)
      mov_ri Isa.rdi 0x9000; mov_ri Isa.rsi 4096;
      mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
      mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
      mov_ri64 Isa.r8 (-1L); mov_ri Isa.r9 0;
      mov_ri Isa.rax Defs.sys_mmap; syscall;
      mov_ri Isa.rbx 0x9000;
      mov_ri Isa.rcx 10;
      store Isa.rbx 0 Isa.rcx;
      mov_ri Isa.rax Defs.sys_fork; syscall;
      cmp_ri Isa.rax 0;
      Jcc_l (Isa.Eq, "child");
      (* parent: wait, then load global *)
      mov_ri64 Isa.rdi (-1L); mov_ri Isa.rsi 0; mov_ri Isa.rdx 0;
      mov_ri Isa.rax Defs.sys_wait4; syscall;
      load Isa.rdi Isa.rbx 0;
      mov_ri Isa.rax Defs.sys_exit_group; syscall;
      Label "child";
      mov_ri Isa.rcx 99;
      store Isa.rbx 0 Isa.rcx;
    ]
    @ Tutil.exit_with 0
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "parent value intact" 10 code

let test_clone_thread_shares_memory () =
  let prog =
    [
      mov_ri Isa.rdi 0x9000; mov_ri Isa.rsi 8192;
      mov_ri Isa.rdx (Defs.prot_read lor Defs.prot_write);
      mov_ri Isa.r10 (Defs.map_fixed lor Defs.map_anonymous);
      mov_ri64 Isa.r8 (-1L); mov_ri Isa.r9 0;
      mov_ri Isa.rax Defs.sys_mmap; syscall;
      (* clone(VM|FILES|SIGHAND|THREAD, stack=0x9000+8192) *)
      mov_ri Isa.rdi
        (Defs.clone_vm lor Defs.clone_files lor Defs.clone_sighand
       lor Defs.clone_thread);
      mov_ri Isa.rsi (0x9000 + 8192 - 256);
      mov_ri Isa.rdx 0; mov_ri Isa.r10 0; mov_ri Isa.r8 0;
      mov_ri Isa.rax Defs.sys_clone; syscall;
      cmp_ri Isa.rax 0;
      Jcc_l (Isa.Eq, "thread");
      (* main: spin until *0x9000 = 42 *)
      Label "spin";
      mov_ri Isa.rbx 0x9000;
      load Isa.rcx Isa.rbx 0;
      cmp_ri Isa.rcx 42;
      Jcc_l (Isa.Ne, "spin");
      mov_ri Isa.rdi 0;
      mov_ri Isa.rax Defs.sys_exit_group; syscall;
      Label "thread";
      mov_ri Isa.rbx 0x9000;
      mov_ri Isa.rcx 42;
      store Isa.rbx 0 Isa.rcx;
      (* thread exits (not group) *)
      mov_ri Isa.rdi 0;
      mov_ri Isa.rax Defs.sys_exit; syscall;
    ]
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "exit ok" 0 code

let test_pipe_roundtrip () =
  (* write through a pipe and read it back *)
  let prog =
    [
      (* pipe(rsp-64) *)
      mov_rr Isa.rdi Isa.rsp; sub_ri Isa.rdi 64;
      mov_ri Isa.rax Defs.sys_pipe; syscall;
      (* write(fds[1], "A", 1): fds at rsp-64: rfd u64, wfd u64 *)
      mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 64;
      load Isa.rdi Isa.rbx 8;
      (* put 'A' (0x41) at rsp-128 *)
      mov_rr Isa.rsi Isa.rsp; sub_ri Isa.rsi 128;
      mov_ri Isa.rcx 0x41;
      store8 Isa.rsi 0 Isa.rcx;
      mov_ri Isa.rdx 1;
      mov_ri Isa.rax Defs.sys_write; syscall;
      (* read(fds[0], rsp-192, 1) *)
      load Isa.rdi Isa.rbx 0;
      mov_rr Isa.rsi Isa.rsp; sub_ri Isa.rsi 192;
      mov_ri Isa.rdx 1;
      mov_ri Isa.rax Defs.sys_read; syscall;
      (* exit(buf[0]) *)
      mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 192;
      load8 Isa.rdi Isa.rbx 0;
      mov_ri Isa.rax Defs.sys_exit_group; syscall;
    ]
  in
  let code, _, _ = Tutil.run_asm prog in
  Alcotest.(check int) "read back 'A'" 0x41 code

let test_open_read_file () =
  let k = Kernel.create () in
  ignore (Vfs.add_file k.Types.vfs "/etc/motd" "W");
  let img =
    Loader.image_of_items
      ([
         Label "start";
         Jmp_l "go";
         Label "path";
         Bytes "/etc/motd\000";
         Label "go";
         Lea_ip (Isa.rdi, "path");
         mov_ri Isa.rsi Defs.o_rdonly;
         mov_ri Isa.rdx 0;
         mov_ri Isa.rax Defs.sys_open;
         syscall;
         mov_rr Isa.rdi Isa.rax;
         mov_rr Isa.rsi Isa.rsp; sub_ri Isa.rsi 64;
         mov_ri Isa.rdx 16;
         mov_ri Isa.rax Defs.sys_read;
         syscall;
         mov_rr Isa.rbx Isa.rsp; sub_ri Isa.rbx 64;
         load8 Isa.rdi Isa.rbx 0;
         mov_ri Isa.rax Defs.sys_exit_group;
         syscall;
       ])
  in
  ignore (Kernel.spawn k img);
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  let t = Hashtbl.find k.Types.tasks 1 in
  Alcotest.(check int) "read 'W'" (Char.code 'W') t.Types.exit_code

let test_cycle_accounting_enosys () =
  (* One iteration of the microbenchmark skeleton: cycles charged for
     a non-existent syscall should be dominated by syscall_base. *)
  let k = Kernel.create () in
  let img =
    Loader.image_of_items
      ([ mov_ri Isa.rax 500; syscall ] @ Tutil.exit_with 0)
  in
  let t = Kernel.spawn k img in
  ignore (Kernel.run_until_exit k);
  let cycles = Int64.to_int t.Types.tcycles in
  let base = Sim_costs.Cost_model.default.syscall_base in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d ~ 2*base + few insns" cycles)
    true
    (cycles > 2 * base && cycles < (2 * base) + 50)

let test_execve () =
  let k = Kernel.create () in
  Hashtbl.replace k.Types.programs "/bin/five"
    (Loader.image_of_items (Tutil.exit_with 5));
  let img =
    Loader.image_of_items
      [
        Label "start";
        Jmp_l "go";
        Label "path";
        Bytes "/bin/five\000";
        Label "go";
        Lea_ip (Isa.rdi, "path");
        mov_ri Isa.rsi 0;
        mov_ri Isa.rdx 0;
        mov_ri Isa.rax Defs.sys_execve;
        syscall;
        (* only reached on failure *)
        mov_ri Isa.rdi 1;
        mov_ri Isa.rax Defs.sys_exit_group;
        syscall;
      ]
  in
  ignore (Kernel.spawn k img);
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  let t = Hashtbl.find k.Types.tasks 1 in
  Alcotest.(check int) "exec'd image ran" 5 t.Types.exit_code

let test_multi_cpu_affinity () =
  (* Two spinning tasks pinned to different CPUs both make progress. *)
  let k = Kernel.create ~ncpus:2 () in
  let spin n =
    Loader.image_of_items
      ([ mov_ri Isa.rcx n; Label "l"; sub_ri Isa.rcx 1; cmp_ri Isa.rcx 0;
         Jcc_l (Isa.Ne, "l") ]
      @ Tutil.exit_with 0)
  in
  let t1 = Kernel.spawn k ~affinity:0 (spin 5000) in
  let t2 = Kernel.spawn k ~affinity:1 (spin 5000) in
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  Alcotest.(check int) "t1 done" 0 t1.Types.exit_code;
  Alcotest.(check int) "t2 done" 0 t2.Types.exit_code;
  (* Both CPUs did comparable work. *)
  let c0 = k.Types.cpus.(0).Types.clk and c1 = k.Types.cpus.(1).Types.clk in
  Alcotest.(check bool)
    (Printf.sprintf "parallel progress (%d vs %d)" c0 c1)
    true
    (abs (c0 - c1) < 2 * Types.quantum)

let tests =
  [
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "getpid/gettid" `Quick test_getpid_gettid;
    Alcotest.test_case "ENOSYS for syscall 500" `Quick test_enosys;
    Alcotest.test_case "console write" `Quick test_console_write;
    Alcotest.test_case "mmap/mprotect/SIGSEGV" `Quick test_mmap_mprotect_write;
    Alcotest.test_case "fork + wait4" `Quick test_fork_wait;
    Alcotest.test_case "fork memory isolation" `Quick
      test_fork_memory_isolated;
    Alcotest.test_case "clone thread shares memory" `Quick
      test_clone_thread_shares_memory;
    Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
    Alcotest.test_case "open/read file" `Quick test_open_read_file;
    Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting_enosys;
    Alcotest.test_case "execve" `Quick test_execve;
    Alcotest.test_case "multi-cpu affinity" `Quick test_multi_cpu_affinity;
  ]
