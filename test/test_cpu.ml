(** CPU interpreter tests: arithmetic, control flow, stack, SSE/x87,
    segment-relative addressing, traps and register hooks. *)

open Sim_isa
open Sim_mem
open Sim_cpu

let setup items =
  let m = Mem.create () in
  let blob = Sim_asm.Asm.assemble ~base:0x1000 items in
  Mem.map m ~addr:0x1000 ~len:(max 4096 (String.length blob.bytes)) ~perm:Mem.rx;
  Mem.poke_bytes m 0x1000 blob.bytes;
  Mem.map m ~addr:0x8000 ~len:8192 ~perm:Mem.rw;
  let c = Cpu.create () in
  c.rip <- 0x1000;
  Cpu.poke_reg c Isa.rsp 0xA000L;
  (c, m, blob)

(* Step until an outcome other than Stepped, or [fuel] runs out. *)
let rec run_to_trap ?(fuel = 10000) c m =
  if fuel = 0 then Alcotest.fail "fuel exhausted"
  else
    match Cpu.step c m with
    | Cpu.Stepped -> run_to_trap ~fuel:(fuel - 1) c m
    | o -> o

let expect_halt c m = function
  | () -> (
      match run_to_trap c m with
      | Cpu.Halted -> ()
      | _ -> Alcotest.fail "expected halt")

let test_arith () =
  let open Sim_asm.Asm in
  let c, m, _ =
    setup
      [
        mov_ri Isa.rax 10; mov_ri Isa.rbx 3;
        i (Isa.Alu_rr (Isa.Mul, Isa.rax, Isa.rbx)) (* 30 *);
        add_ri Isa.rax 12 (* 42 *);
        mov_ri Isa.rcx 5;
        i (Isa.Alu_rr (Isa.Div, Isa.rcx, Isa.rbx)) (* 1 *);
        mov_ri Isa.rdx 7;
        i (Isa.Alu_rr (Isa.Rem, Isa.rdx, Isa.rbx)) (* 1 *);
        hlt;
      ]
  in
  expect_halt c m ();
  Alcotest.(check int64) "rax" 42L (Cpu.peek_reg c Isa.rax);
  Alcotest.(check int64) "rcx" 1L (Cpu.peek_reg c Isa.rcx);
  Alcotest.(check int64) "rdx" 1L (Cpu.peek_reg c Isa.rdx)

let test_div_by_zero () =
  let open Sim_asm.Asm in
  let c, m, _ =
    setup
      [ mov_ri Isa.rax 1; mov_ri Isa.rbx 0;
        i (Isa.Alu_rr (Isa.Div, Isa.rax, Isa.rbx)); hlt ]
  in
  match run_to_trap c m with
  | Cpu.Fault_arith -> ()
  | _ -> Alcotest.fail "expected arithmetic fault"

let test_branches_signed_unsigned () =
  let open Sim_asm.Asm in
  (* rax = -1; unsigned it is huge: jb (Ult) not taken, jl (Lt) taken *)
  let c, m, _ =
    setup
      [
        mov_ri64 Isa.rax (-1L);
        cmp_ri Isa.rax 5;
        Jcc_l (Isa.Lt, "signed_less");
        mov_ri Isa.rbx 0; hlt;
        Label "signed_less";
        mov_ri64 Isa.rax (-1L);
        cmp_ri Isa.rax 5;
        Jcc_l (Isa.Ult, "unsigned_less");
        mov_ri Isa.rbx 42; hlt;
        Label "unsigned_less";
        mov_ri Isa.rbx 1; hlt;
      ]
  in
  expect_halt c m ();
  Alcotest.(check int64) "rbx" 42L (Cpu.peek_reg c Isa.rbx)

let test_call_ret_stack () =
  let open Sim_asm.Asm in
  let c, m, _ =
    setup
      [
        mov_ri Isa.rax 1;
        Call_l "f";
        add_ri Isa.rax 100; hlt;
        Label "f"; add_ri Isa.rax 10; ret;
      ]
  in
  expect_halt c m ();
  Alcotest.(check int64) "rax" 111L (Cpu.peek_reg c Isa.rax);
  Alcotest.(check int64) "rsp restored" 0xA000L (Cpu.peek_reg c Isa.rsp)

let test_call_reg_pushes_return () =
  let open Sim_asm.Asm in
  let c, m, blob =
    setup
      [
        Lea_ip (Isa.rax, "target");
        call_reg Isa.rax;
        hlt;
        Label "target";
        (* return address should be on the stack: pop it *)
        pop Isa.rbx;
        jmp_reg Isa.rbx;
      ]
  in
  expect_halt c m ();
  (* return address = instruction after the call = target minus the
     intervening hlt byte *)
  let after_call = Sim_asm.Asm.symbol blob "target" - 1 in
  Alcotest.(check int64) "ret addr" (Int64.of_int after_call)
    (Cpu.peek_reg c Isa.rbx)

let test_gs_relative () =
  let open Sim_asm.Asm in
  let c, m, _ =
    setup
      [
        mov_ri Isa.rbx 0;
        mov_ri Isa.rcx 0x5A;
        store8 ~seg:Isa.Seg_gs Isa.rbx 16 Isa.rcx;
        load8 ~seg:Isa.Seg_gs Isa.rax Isa.rbx 16;
        hlt;
      ]
  in
  c.gs_base <- 0x8000;
  expect_halt c m ();
  Alcotest.(check int64) "gs byte" 0x5AL (Cpu.peek_reg c Isa.rax);
  Alcotest.(check int) "in memory" 0x5A (Mem.read_u8 m 0x8010)

let test_listing1_pattern () =
  (* The pthread-init pattern from the paper's Listing 1: xmm0 is
     populated, two syscalls intervene, then movups writes 16 bytes. *)
  let open Sim_asm.Asm in
  let c, m, _ =
    setup
      [
        mov_ri Isa.r12 0x8100;
        i (Isa.Movq_xr (0, Isa.r12));
        i (Isa.Punpcklqdq (0, 0));
        i (Isa.Movups_store (Isa.Seg_none, Isa.r12, 0l, 0));
        hlt;
      ]
  in
  expect_halt c m ();
  Alcotest.(check int64) "prev" 0x8100L (Mem.read_u64 m 0x8100);
  Alcotest.(check int64) "next" 0x8100L (Mem.read_u64 m 0x8108)

let test_x87 () =
  let open Sim_asm.Asm in
  let c, m, _ =
    setup
      [
        i Isa.Fld1; i Isa.Fld1; i Isa.Faddp;
        mov_ri Isa.rbx 0x8000;
        i (Isa.Fstp (Isa.Seg_none, Isa.rbx, 0l));
        hlt;
      ]
  in
  expect_halt c m ();
  Alcotest.(check (float 0.0001)) "1+1" 2.0
    (Int64.float_of_bits (Mem.read_u64 m 0x8000))

let test_syscall_trap_rip () =
  let open Sim_asm.Asm in
  let c, m, _ = setup [ nop; syscall; hlt ] in
  (match run_to_trap c m with
  | Cpu.Trap_syscall -> ()
  | _ -> Alcotest.fail "expected syscall trap");
  (* rip points after the 2-byte syscall at 0x1001 *)
  Alcotest.(check int) "rip" 0x1003 c.rip

let test_hypercall_trap () =
  let open Sim_asm.Asm in
  let c, m, _ = setup [ hypercall 7; hlt ] in
  match run_to_trap c m with
  | Cpu.Trap_hypercall 7 -> ()
  | _ -> Alcotest.fail "expected hypercall trap"

let test_fetch_fault_on_nx () =
  let open Sim_asm.Asm in
  let c, m, _ = setup [ mov_ri Isa.rax 0x8000; jmp_reg Isa.rax ] in
  (* 0x8000 is rw- : executing there must fault *)
  match run_to_trap c m with
  | Cpu.Fault (0x8000, Mem.Exec) -> ()
  | o ->
      Alcotest.failf "expected exec fault, got %s"
        (match o with
        | Cpu.Fault (a, _) -> Printf.sprintf "fault at %x" a
        | Cpu.Halted -> "halt"
        | _ -> "other")

let test_hooks_observe_registers () =
  let open Sim_asm.Asm in
  let c, m, _ =
    setup [ mov_ri Isa.rbx 1; mov_rr Isa.rax Isa.rbx;
            i (Isa.Movq_xr (3, Isa.rax)); hlt ]
  in
  let events = ref [] in
  c.hook <- Some (fun e -> events := e :: !events);
  expect_halt c m ();
  let has p = List.exists p !events in
  Alcotest.(check bool) "write rbx" true
    (has (function Cpu.Reg_write 3 -> true | _ -> false));
  Alcotest.(check bool) "read rbx" true
    (has (function Cpu.Reg_read 3 -> true | _ -> false));
  Alcotest.(check bool) "write xmm3" true
    (has (function Cpu.Xmm_write 3 -> true | _ -> false))

let test_xstate_roundtrip () =
  let x = Cpu.xstate_create () in
  Cpu.set_xmm_lo x 5 123L;
  Cpu.set_xmm_hi x 5 456L;
  Cpu.set_st x 0 (Int64.bits_of_float 3.14);
  x.st_sp <- 1;
  let m = Mem.create () in
  Mem.map m ~addr:0x1000 ~len:Mem.page_size ~perm:Mem.rw;
  Cpu.xstate_save x m 0x1000;
  let y = Cpu.xstate_create () in
  Cpu.xstate_load y m 0x1000;
  Alcotest.(check int64) "xmm lo" 123L (Cpu.xmm_lo y 5);
  Alcotest.(check int64) "xmm hi" 456L (Cpu.xmm_hi y 5);
  Alcotest.(check int) "st_sp" 1 y.st_sp;
  Alcotest.(check int64) "st0" (Int64.bits_of_float 3.14) (Cpu.st y 0)

(** {1 Cached-vs-uncached equivalence (qcheck)}

    For random x64lite programs — including programs that overwrite
    their own code bytes and re-execute them — stepping through the
    decoded-instruction cache must be observationally identical to the
    byte-at-a-time path: same per-step outcomes, same [rip] sequence,
    same cycle costs, same final registers, flags and memory. *)

let eq_code_base = 0x1000
let eq_code_len = 2 * Sim_mem.Mem.page_size
let eq_data_base = 0x8000
let eq_data_len = 8192

(* A subset of the ISA that keeps random programs "interesting but
   safe": memory operands go through rbx (data) or rcx (code, i.e.
   self-modifying stores); control flow uses small relative jumps.
   Wild programs that fault or hit undecodable bytes are fine — both
   paths must agree on the fault, and the run simply ends there. *)
let gen_eq_instr : Isa.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let r = int_range 0 15 in
  let small32 = map Int32.of_int (int_range (-64) 64) in
  let data_disp = map Int32.of_int (int_range 0 (eq_data_len - 16)) in
  let code_disp = map Int32.of_int (int_range 0 (eq_code_len - 16)) in
  let alu =
    oneofl [ Isa.Add; Isa.Sub; Isa.And; Isa.Or; Isa.Xor; Isa.Cmp; Isa.Mul ]
  in
  (* imul has no immediate-operand encoding *)
  let alu_imm =
    oneofl [ Isa.Add; Isa.Sub; Isa.And; Isa.Or; Isa.Xor; Isa.Cmp ]
  in
  let cond =
    oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Le; Isa.Gt; Isa.Ge; Isa.Ult; Isa.Uge ]
  in
  (* Relative jumps stay within a few instructions of the current one;
     landing mid-encoding is allowed (desync is exactly the kind of
     disagreement the property would catch). *)
  let rel = map Int32.of_int (int_range (-24) 24) in
  frequency
    [
      (6, map2 (fun d imm -> Isa.Mov_ri32 (d, imm)) r small32);
      (4, map2 (fun d s -> Isa.Mov_rr (d, s)) r r);
      (6, map3 (fun op d s -> Isa.Alu_rr (op, d, s)) alu r r);
      (6, map3 (fun op d imm -> Isa.Alu_ri (op, d, imm)) alu_imm r small32);
      (2, map2 (fun c d -> Isa.Setcc (c, d)) cond r);
      (3, map2 (fun d disp -> Isa.Load (Isa.Seg_none, d, Isa.rbx, disp)) r data_disp);
      (3, map2 (fun s disp -> Isa.Store (Isa.Seg_none, Isa.rbx, disp, s)) r data_disp);
      (2, map2 (fun d disp -> Isa.Load8 (Isa.Seg_none, d, Isa.rbx, disp)) r data_disp);
      (2, map2 (fun s disp -> Isa.Store8 (Isa.Seg_none, Isa.rbx, disp, s)) r data_disp);
      (* the SMC generator: byte stores into the program's own pages *)
      (3, map2 (fun s disp -> Isa.Store8 (Isa.Seg_none, Isa.rcx, disp, s)) r code_disp);
      (2, map (fun rl -> Isa.Jmp rl) rel);
      (3, map2 (fun c rl -> Isa.Jcc (c, rl)) cond rel);
      (2, return Isa.Nop);
      (1, map (fun n -> Isa.Nopw n) (int_range 1 4));
      (1, return Isa.Rdtsc);
      (1, return Isa.Syscall);
      (1, map (fun x -> Isa.Hypercall x) (int_range 0 100));
      (1, map (fun d -> Isa.Push d) r);
      (1, map (fun d -> Isa.Pop d) r);
      (1, return Isa.Hlt);
    ]

(* One run: execute up to [fuel] steps, recording every step's
   pre-[rip], outcome and charged cost; stop at any non-advancing
   outcome.  Returns the trace plus full final state. *)
let eq_run ?icache (code : string) =
  let m = Mem.create () in
  Mem.map m ~addr:eq_code_base ~len:eq_code_len ~perm:Mem.rwx;
  Mem.poke_bytes m eq_code_base code;
  Mem.map m ~addr:eq_data_base ~len:eq_data_len ~perm:Mem.rw;
  let c = Cpu.create () in
  c.rip <- eq_code_base;
  Cpu.poke_reg c Isa.rsp (Int64.of_int (eq_data_base + eq_data_len));
  Cpu.poke_reg c Isa.rbx (Int64.of_int eq_data_base);
  Cpu.poke_reg c Isa.rcx (Int64.of_int eq_code_base);
  let trace = ref [] in
  let cycles = ref 0 in
  let continue_ = ref true in
  let fuel = ref 300 in
  while !continue_ && !fuel > 0 do
    decr fuel;
    let rip0 = c.rip in
    let o = Cpu.step ?icache c m in
    trace := (rip0, o, c.last_cost) :: !trace;
    cycles := !cycles + c.last_cost;
    match o with
    | Cpu.Stepped | Cpu.Trap_syscall | Cpu.Trap_hypercall _
    | Cpu.Trap_breakpoint ->
        ()
    | Cpu.Halted | Cpu.Fault _ | Cpu.Fault_arith | Cpu.Bad_instr _ ->
        continue_ := false
  done;
  let regs = Array.init 16 (fun r -> Cpu.peek_reg c r) in
  let memimg =
    Mem.peek_bytes m eq_code_base eq_code_len
    ^ Mem.peek_bytes m eq_data_base eq_data_len
  in
  (List.rev !trace, regs, (c.zf, c.sf, c.cf), c.rip, !cycles, memimg)

let prop_icache_equivalence =
  QCheck.Test.make ~count:300 ~name:"icache == uncached (incl. SMC)"
    (QCheck.make
       (QCheck.Gen.list_size (QCheck.Gen.int_range 5 40) gen_eq_instr))
    (fun instrs ->
      let code = Encode.encode_all instrs in
      eq_run code = eq_run ~icache:(Icache.create ()) code)

(* Deterministic witness for the property's SMC claim: a loop whose
   body patches the instruction *after* the loop from [hlt] to
   [mov rdx, 7; hlt]-equivalent bytes and then reaches it.  The cache
   executes (and caches) the target page across many iterations before
   the patch lands. *)
let test_smc_patch_observed () =
  let open Sim_asm.Asm in
  let items =
    [
      (* r8 = loop counter; rcx = code base (SMC window) *)
      mov_ri Isa.r8 20;
      Label "loop";
      sub_ri Isa.r8 1;
      cmp_ri Isa.r8 0;
      Jcc_l (Isa.Ne, "loop");
      (* patch 'target' (currently hlt, 0xF4) into nop (0x90) *)
      mov_ri Isa.r9 0x90;
      Lea_ip (Isa.r10, "target");
      mov_rr Isa.rcx Isa.r10;
      store8 Isa.rcx 0 Isa.r9;
      Label "target";
      hlt (* becomes nop after the patch *);
      mov_ri Isa.rax 42;
      hlt;
    ]
  in
  let blob = Sim_asm.Asm.assemble ~base:eq_code_base items in
  let run ic =
    let m = Mem.create () in
    Mem.map m ~addr:eq_code_base ~len:eq_code_len ~perm:Mem.rwx;
    Mem.poke_bytes m eq_code_base blob.Sim_asm.Asm.bytes;
    Mem.map m ~addr:eq_data_base ~len:eq_data_len ~perm:Mem.rw;
    let c = Cpu.create () in
    c.rip <- eq_code_base;
    Cpu.poke_reg c Isa.rsp (Int64.of_int (eq_data_base + eq_data_len));
    let fuel = ref 500 in
    let rec go () =
      if !fuel = 0 then Alcotest.fail "fuel exhausted";
      decr fuel;
      match Cpu.step ?icache:ic c m with
      | Cpu.Stepped -> go ()
      | Cpu.Halted -> Cpu.peek_reg c Isa.rax
      | _ -> Alcotest.fail "unexpected outcome"
    in
    go ()
  in
  (* Uncached and cached agree: execution runs *through* the patched
     byte and halts at the second hlt with rax = 42. *)
  Alcotest.(check int64) "uncached" 42L (run None);
  let ic = Icache.create () in
  Alcotest.(check int64) "icache" 42L (run (Some ic));
  Alcotest.(check bool) "patch invalidated the page" true
    ((Icache.stats ic).Icache.invalidations > 0)

(** {1 The register-access event stream, pinned}

    One program covering every instruction form — including faulting
    loads, stores and pushes, a protection-key store fault, division by
    zero, x87 push overflow and pop underflow, [pxor x,x], fs/gs-relative
    operands, an undecodable opcode, a fetch from a non-executable page
    and an instruction straddling a page seam — is single-stepped with a
    recording hook installed.  Every step's event list, outcome and
    [last_cost], and the final architectural state, must equal the
    literal expectation below.  The Pin analyses (Section IV-B) depend
    on this exact stream. *)

let hs_seam = 0x1FFC  (* a 10-byte [mov] here straddles the page seam *)

let hs_program () =
  let open Sim_asm.Asm in
  let ri v = Int32.of_int v in
  let main =
    [
      (* integer moves and ALU forms *)
      mov_ri Isa.rax 100;
      i (Isa.Mov_ri32 (Isa.rbx, ri (-3)));
      mov_rr Isa.rcx Isa.rax;
      i (Isa.Alu_rr (Isa.Add, Isa.rcx, Isa.rbx));
      i (Isa.Alu_rr (Isa.Sub, Isa.rcx, Isa.rbx));
      i (Isa.Alu_rr (Isa.And, Isa.rcx, Isa.rax));
      i (Isa.Alu_rr (Isa.Or, Isa.rcx, Isa.rbx));
      i (Isa.Alu_rr (Isa.Xor, Isa.rcx, Isa.rcx));
      i (Isa.Alu_rr (Isa.Cmp, Isa.rax, Isa.rbx));
      i (Isa.Alu_rr (Isa.Mul, Isa.rax, Isa.rbx));
      mov_ri Isa.rdx 7;
      i (Isa.Alu_rr (Isa.Div, Isa.rax, Isa.rdx));
      i (Isa.Alu_rr (Isa.Rem, Isa.rbx, Isa.rdx));
      i (Isa.Alu_ri (Isa.Add, Isa.rsi, ri 5));
      i (Isa.Alu_ri (Isa.Sub, Isa.rsi, ri 9));
      i (Isa.Alu_ri (Isa.And, Isa.rsi, ri 0xff));
      i (Isa.Alu_ri (Isa.Or, Isa.rsi, ri 0x100));
      i (Isa.Alu_ri (Isa.Xor, Isa.rsi, ri 1));
      i (Isa.Alu_ri (Isa.Cmp, Isa.rsi, ri 0x1fe));
      i (Isa.Shift (Isa.Shl, Isa.rsi, 4));
      i (Isa.Shift (Isa.Shr, Isa.rsi, 2));
      mov_ri64 Isa.rdi (-64L);
      i (Isa.Shift (Isa.Sar, Isa.rdi, 3));
      i (Isa.Setcc (Isa.Lt, Isa.r8));
      i (Isa.Setcc (Isa.Uge, Isa.r9));
      cmp_ri Isa.rdi 0;
      Jcc_l (Isa.Ge, "not_taken");
      Jcc_l (Isa.Lt, "taken");
      Label "not_taken";
      hlt;
      Label "taken";
      Jmp_l "after_jmp";
      hlt;
      Label "after_jmp";
      lea Isa.r10 Isa.rax 24;
      (* plain and segment-relative memory operands *)
      mov_ri Isa.r11 0x8000;
      store Isa.r11 8 Isa.rax;
      load Isa.r12 Isa.r11 8;
      mov_ri Isa.r13 0x10;
      store ~seg:Isa.Seg_fs Isa.r13 0 Isa.rsi;
      load ~seg:Isa.Seg_gs Isa.r14 Isa.r13 (-0x1000);
      store8 ~seg:Isa.Seg_gs Isa.r13 0x20 Isa.rdi;
      load8 ~seg:Isa.Seg_fs Isa.r15 Isa.r13 0x1020;
      (* stack, calls and indirect branches *)
      push Isa.rax;
      pop Isa.rbp;
      Call_l "fn";
      Lea_ip (Isa.rax, "fn");
      call_reg Isa.rax;
      Lea_ip (Isa.rdx, "after_jmp_reg");
      jmp_reg Isa.rdx;
      hlt;
      Label "after_jmp_reg";
      (* SSE *)
      i (Isa.Movq_xr (1, Isa.rax));
      i (Isa.Movq_rx (Isa.rcx, 1));
      i (Isa.Punpcklqdq (1, 1));
      i (Isa.Movups_store (Isa.Seg_fs, Isa.r13, ri 0x40, 1));
      i (Isa.Movups_load (Isa.Seg_gs, 2, Isa.r13, ri (-0x1000)));
      i (Isa.Pxor (2, 1));
      i (Isa.Pxor (1, 1));
      (* x87, including push overflow and pop underflow *)
      i Isa.Fld1;
      i Isa.Fldz;
      i Isa.Faddp;
      i (Isa.Fstp (Isa.Seg_gs, Isa.r13, ri 0x60));
      i Isa.Faddp;
      i (Isa.Fstp (Isa.Seg_none, Isa.r11, ri 0x70));
      i Isa.Fld1; i Isa.Fld1; i Isa.Fld1; i Isa.Fld1; i Isa.Fld1;
      i Isa.Fld1; i Isa.Fld1; i Isa.Fld1; i Isa.Fldz;
      i Isa.Faddp;
      (* cycle-accounting forms *)
      nop; nop; nop; nop; nop;
      i (Isa.Nopw 3);
      nop;
      i Isa.Rdtsc;
      mov_ri Isa.rax 2;
      i (Isa.Wrpkru Isa.rax);
      i (Isa.Rdpkru Isa.rbx);
      (* trapping forms *)
      i Isa.Int3;
      syscall;
      hypercall 7;
      (* faulting forms: each resumes at the next [r*] label *)
      mov_ri Isa.r11 0x50000;
      load Isa.rax Isa.r11 0;
      Label "r0";
      store Isa.r11 0 Isa.rax;
      Label "r1";
      mov_ri Isa.r12 0x1000;
      store8 Isa.r12 0 Isa.rax;
      Label "r2";
      mov_ri Isa.r12 0xB000;
      store Isa.r12 0 Isa.rax;
      Label "r3";
      i (Isa.Movups_store (Isa.Seg_none, Isa.r12, ri 0, 0));
      Label "r4";
      i Isa.Fld1;
      i (Isa.Fstp (Isa.Seg_none, Isa.r12, ri 8));
      Label "r5";
      i (Isa.Movups_load (Isa.Seg_none, 3, Isa.r11, ri 0));
      Label "r6";
      load8 Isa.rax Isa.r11 0;
      Label "r7";
      mov_rr Isa.r14 Isa.rsp;
      mov_rr Isa.rsp Isa.r11;
      push Isa.rax;
      Label "r8";
      call_reg Isa.rax;
      Label "r9";
      Call_l "fn";
      Label "r10";
      ret;
      Label "r11";
      pop Isa.rbx;
      Label "r12";
      mov_rr Isa.rsp Isa.r14;
      mov_ri Isa.rcx 0;
      i (Isa.Alu_rr (Isa.Div, Isa.rax, Isa.rcx));
      Label "r13";
      i (Isa.Alu_rr (Isa.Rem, Isa.rax, Isa.rcx));
      Label "r14";
      i (Isa.Nopw 5);
      Bytes "\x0F\xFF";
      Label "r15";
      mov_ri Isa.rax 0x8000;
      jmp_reg Isa.rax;
      Label "r16";
      mov_ri Isa.rax 0;
      i (Isa.Wrpkru Isa.rax);
      Jmp_l "seam";
      Label "finish";
      hlt;
      Label "fn";
      add_ri Isa.rdi 1;
      ret;
    ]
  in
  let blob =
    Sim_asm.Asm.assemble ~base:0x1000 ~env:[ ("seam", hs_seam) ] main
  in
  let seam =
    Sim_asm.Asm.assemble ~base:hs_seam
      ~env:[ ("finish", Sim_asm.Asm.symbol blob "finish") ]
      [ mov_ri64 Isa.r15 0x1122334455667788L; Jmp_l "finish" ]
  in
  let resumes =
    List.init 17 (fun k -> Sim_asm.Asm.symbol blob (Printf.sprintf "r%d" k))
  in
  (blob, seam, resumes)

let hs_event = function
  | Cpu.Reg_read r -> Printf.sprintf "r%d" r
  | Cpu.Reg_write r -> Printf.sprintf "w%d" r
  | Cpu.Xmm_read x -> Printf.sprintf "xr%d" x
  | Cpu.Xmm_write x -> Printf.sprintf "xw%d" x
  | Cpu.X87_read -> "fr"
  | Cpu.X87_write -> "fw"

let hs_outcome = function
  | Cpu.Stepped -> "ok"
  | Cpu.Trap_syscall -> "syscall"
  | Cpu.Trap_hypercall n -> Printf.sprintf "hypercall %d" n
  | Cpu.Trap_breakpoint -> "int3"
  | Cpu.Halted -> "halt"
  | Cpu.Fault (a, acc) ->
      Printf.sprintf "fault %#x %s" a (Mem.access_to_string acc)
  | Cpu.Fault_arith -> "arith"
  | Cpu.Bad_instr a -> Printf.sprintf "bad %#x" a

(* Run the program one [Cpu.step] at a time; one line per step:
   "<rip> <outcome> cost=<last_cost> [<events>]". *)
let hs_run ?icache () =
  let blob, seam, resumes = hs_program () in
  let m = Mem.create () in
  Mem.map m ~addr:0x1000 ~len:(2 * Mem.page_size) ~perm:Mem.rx;
  Mem.poke_bytes m 0x1000 blob.Sim_asm.Asm.bytes;
  Mem.poke_bytes m hs_seam seam.Sim_asm.Asm.bytes;
  Mem.map m ~addr:0x8000 ~len:(2 * Mem.page_size) ~perm:Mem.rw;
  Mem.map m ~addr:0xA000 ~len:Mem.page_size ~perm:Mem.rw;
  Mem.map m ~addr:0xB000 ~len:Mem.page_size ~perm:Mem.rw;
  (match Mem.set_pkey m ~addr:0xB000 ~len:Mem.page_size ~pkey:1 with
  | Ok () -> ()
  | Error `Unmapped -> Alcotest.fail "set_pkey");
  let c = Cpu.create () in
  c.rip <- 0x1000;
  c.fs_base <- 0x8000;
  c.gs_base <- 0x9000;
  c.now <- (fun () -> 4242L);
  Cpu.poke_reg c Isa.rsp 0xB000L;
  let events = ref [] in
  c.hook <- Some (fun e -> events := hs_event e :: !events);
  let lines = ref [] and resumes = ref resumes and fuel = ref 400 in
  let continue_ = ref true in
  while !continue_ do
    decr fuel;
    if !fuel = 0 then Alcotest.fail "fuel exhausted";
    events := [];
    let rip0 = c.rip in
    let o = Cpu.step ?icache c m in
    lines :=
      Printf.sprintf "%#x %s cost=%d [%s]" rip0 (hs_outcome o) c.last_cost
        (String.concat " " (List.rev !events))
      :: !lines;
    match o with
    | Cpu.Halted -> continue_ := false
    | Cpu.Fault _ | Cpu.Fault_arith | Cpu.Bad_instr _ -> (
        match !resumes with
        | r :: rest ->
            c.rip <- r;
            resumes := rest
        | [] -> Alcotest.fail "unexpected fault")
    | _ -> ()
  done;
  let final =
    [
      String.concat " "
        (List.init 16 (fun r -> Printf.sprintf "%Lx" (Cpu.peek_reg c r)));
      Printf.sprintf "rip=%#x zf=%b sf=%b cf=%b pkru=%d nop_run=%d" c.rip
        c.zf c.sf c.cf c.pkru c.nop_run;
      String.concat " "
        (List.init 4 (fun x ->
             Printf.sprintf "%Lx:%Lx" (Cpu.xmm_hi c.x x) (Cpu.xmm_lo c.x x)));
      Printf.sprintf "st_sp=%d %s" c.x.st_sp
        (String.concat " "
           (List.init 8 (fun i -> Printf.sprintf "%Lx" (Cpu.st c.x i))));
      Digest.to_hex
        (Digest.string
           (Mem.peek_bytes m 0x8000 (2 * Mem.page_size)
           ^ Mem.peek_bytes m 0xA000 (2 * Mem.page_size)));
    ]
  in
  (List.rev !lines, final)

(* Captured from the interpreter; a change here is a change to what
   every Pin analysis observes. *)
let hs_expected_steps =
  [
    "0x1000 ok cost=1 [w0]";
    "0x100a ok cost=1 [w3]";
    "0x1010 ok cost=1 [r0 w1]";
    "0x1012 ok cost=1 [r1 r3 w1]";
    "0x1014 ok cost=1 [r1 r3 w1]";
    "0x1016 ok cost=1 [r1 r0 w1]";
    "0x1018 ok cost=1 [r1 r3 w1]";
    "0x101a ok cost=1 [r1 r1 w1]";
    "0x101c ok cost=1 [r0 r3]";
    "0x101e ok cost=1 [r0 r3 w0]";
    "0x1020 ok cost=1 [w2]";
    "0x102a ok cost=1 [r0 r2 w0]";
    "0x102c ok cost=1 [r3 r2 w3]";
    "0x102e ok cost=1 [r6 w6]";
    "0x1034 ok cost=1 [r6 w6]";
    "0x103a ok cost=1 [r6 w6]";
    "0x1040 ok cost=1 [r6 w6]";
    "0x1046 ok cost=1 [r6 w6]";
    "0x104c ok cost=1 [r6]";
    "0x1052 ok cost=1 [r6 w6]";
    "0x1055 ok cost=1 [r6 w6]";
    "0x1058 ok cost=1 [w7]";
    "0x1062 ok cost=1 [r7 w7]";
    "0x1065 ok cost=1 [w8]";
    "0x1068 ok cost=1 [w9]";
    "0x106b ok cost=1 [r7]";
    "0x1071 ok cost=1 []";
    "0x1077 ok cost=1 []";
    "0x107e ok cost=1 []";
    "0x1084 ok cost=1 [r0 w10]";
    "0x108a ok cost=1 [w11]";
    "0x1094 ok cost=1 [r11 r0]";
    "0x109a ok cost=1 [r11 w12]";
    "0x10a0 ok cost=1 [w13]";
    "0x10aa ok cost=1 [r13 r6]";
    "0x10b1 ok cost=1 [r13 w14]";
    "0x10b8 ok cost=1 [r13 r7]";
    "0x10bf ok cost=1 [r13 w15]";
    "0x10c6 ok cost=1 [r0]";
    "0x10c8 ok cost=1 [w5]";
    "0x10ca ok cost=1 []";
    "0x11ec ok cost=1 [r7 w7]";
    "0x11f2 ok cost=1 []";
    "0x10cf ok cost=1 [w0]";
    "0x10d9 ok cost=1 [r0]";
    "0x11ec ok cost=1 [r7 w7]";
    "0x11f2 ok cost=1 []";
    "0x10db ok cost=1 [w2]";
    "0x10e5 ok cost=1 [r2]";
    "0x10e8 ok cost=1 [r0 xw1]";
    "0x10ec ok cost=1 [xr1 w1]";
    "0x10f0 ok cost=1 [xr1 xw1]";
    "0x10f3 ok cost=1 [r13 xr1]";
    "0x10fb ok cost=1 [r13 xw2]";
    "0x1103 ok cost=1 [xr1 xw2]";
    "0x1106 ok cost=1 [xr1 xw1]";
    "0x1109 ok cost=1 [fw]";
    "0x110b ok cost=1 [fw]";
    "0x110d ok cost=1 [fr fr fw]";
    "0x110f ok cost=1 [fr r13]";
    "0x1116 ok cost=1 [fr]";
    "0x1118 ok cost=1 [fr r11]";
    "0x111e ok cost=1 [fw]";
    "0x1120 ok cost=1 [fw]";
    "0x1122 ok cost=1 [fw]";
    "0x1124 ok cost=1 [fw]";
    "0x1126 ok cost=1 [fw]";
    "0x1128 ok cost=1 [fw]";
    "0x112a ok cost=1 [fw]";
    "0x112c ok cost=1 [fw]";
    "0x112e ok cost=1 [fw]";
    "0x1130 ok cost=1 [fr fr fw]";
    "0x1132 ok cost=0 []";
    "0x1133 ok cost=0 []";
    "0x1134 ok cost=0 []";
    "0x1135 ok cost=1 []";
    "0x1136 ok cost=0 []";
    "0x1137 ok cost=3 []";
    "0x113b ok cost=0 []";
    "0x113c ok cost=1 [w0]";
    "0x113e ok cost=1 [w0]";
    "0x1148 ok cost=23 [r0]";
    "0x114b ok cost=1 [w3]";
    "0x114e int3 cost=1 []";
    "0x114f syscall cost=1 []";
    "0x1151 hypercall 7 cost=1 []";
    "0x1155 ok cost=1 [w11]";
    "0x115f fault 0x50000 read cost=1 [r11]";
    "0x1165 fault 0x50000 write cost=1 [r11 r0]";
    "0x116b ok cost=1 [w12]";
    "0x1175 fault 0x1000 write cost=1 [r12 r0]";
    "0x117b ok cost=1 [w12]";
    "0x1185 fault 0xb000 write cost=1 [r12]";
    "0x118b fault 0xb000 write cost=1 [r12]";
    "0x1192 ok cost=1 [fw]";
    "0x1194 fault 0xb008 write cost=1 [fr r12]";
    "0x119a fault 0x50000 read cost=1 [r11]";
    "0x11a1 fault 0x50000 read cost=1 [r11]";
    "0x11a7 ok cost=1 [r4 w14]";
    "0x11a9 ok cost=1 [r11 w4]";
    "0x11ab fault 0x4fff8 write cost=1 [r0]";
    "0x11ad fault 0x4fff8 write cost=1 [r0]";
    "0x11af fault 0x4fff8 write cost=1 []";
    "0x11b4 fault 0x50000 read cost=1 []";
    "0x11b5 fault 0x50000 read cost=1 []";
    "0x11b7 ok cost=1 [r14 w4]";
    "0x11b9 ok cost=1 [w1]";
    "0x11c3 arith cost=1 [r0 r1]";
    "0x11c5 arith cost=1 [r0 r1]";
    "0x11c7 ok cost=5 []";
    "0x11cb bad 0x11cb cost=5 []";
    "0x11cd ok cost=1 [w0]";
    "0x11d7 ok cost=1 [r0]";
    "0x8000 fault 0x8000 exec cost=1 []";
    "0x11d9 ok cost=1 [w0]";
    "0x11e3 ok cost=23 [r0]";
    "0x11e6 ok cost=1 []";
    "0x1ffc ok cost=1 [w15]";
    "0x2006 ok cost=1 []";
    "0x11eb halt cost=1 []";
  ]

let hs_expected_final =
  [
    "0 0 10e8 2 b000 ffffffffffffffd6 7f4 fffffffffffffffa 1 1 ffffffffffffffee 50000 b000 10 b000 1122334455667788";
    "rip=0x11eb zf=false sf=true cf=false pkru=0 nop_run=0";
    "0:0 0:0 11ec:1618 0:0";
    "st_sp=7 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000";
    "d6a6b2f8ec7642a9d35e02564d8ae3d3";
  ]

let test_hook_stream () =
  List.iter
    (fun (name, icache) ->
      let steps, final = hs_run ?icache () in
      Alcotest.(check (list string)) (name ^ ": steps") hs_expected_steps steps;
      Alcotest.(check (list string)) (name ^ ": final state") hs_expected_final
        final)
    [ ("uncached", None); ("icache", Some (Icache.create ())) ]

(* Multiply/divide have no immediate-operand encoding, so the decoder
   never produces them; the compiler refuses them outright. *)
let test_compile_rejects_alu_imm_muldiv () =
  List.iter
    (fun op ->
      Alcotest.check_raises (Isa.alu_name op)
        (Invalid_argument
           "Icache.compile_op: ALU op with no immediate form")
        (fun () ->
          let (_ : Icache.op) =
            Icache.compile_op (Isa.Alu_ri (op, Isa.rax, 3l)) 0
          in
          ()))
    [ Isa.Mul; Isa.Div; Isa.Rem ]

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "signed vs unsigned branches" `Quick
      test_branches_signed_unsigned;
    Alcotest.test_case "call/ret stack" `Quick test_call_ret_stack;
    Alcotest.test_case "call reg pushes return" `Quick
      test_call_reg_pushes_return;
    Alcotest.test_case "gs-relative access" `Quick test_gs_relative;
    Alcotest.test_case "listing 1 xmm pattern" `Quick test_listing1_pattern;
    Alcotest.test_case "x87 stack" `Quick test_x87;
    Alcotest.test_case "syscall trap rip" `Quick test_syscall_trap_rip;
    Alcotest.test_case "hypercall trap" `Quick test_hypercall_trap;
    Alcotest.test_case "NX fetch fault" `Quick test_fetch_fault_on_nx;
    Alcotest.test_case "register hooks" `Quick test_hooks_observe_registers;
    Alcotest.test_case "xstate roundtrip" `Quick test_xstate_roundtrip;
    QCheck_alcotest.to_alcotest prop_icache_equivalence;
    Alcotest.test_case "SMC patch observed (icache)" `Quick
      test_smc_patch_observed;
    Alcotest.test_case "hook event stream pinned" `Quick test_hook_stream;
    Alcotest.test_case "no ALU immediate mul/div/rem" `Quick
      test_compile_rejects_alu_imm_muldiv;
  ]
