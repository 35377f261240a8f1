(** Allocation regressions.  Registers, xstate and clocks are stored
    unboxed, so the ops of a compiled block allocate nothing once warm,
    and each mechanism's Table II iteration allocates no more than a
    stated number of minor-heap words.  [Gc.minor_words] counts are
    deterministic for a given build, so these are exact gates. *)

open Sim_isa
open Sim_mem
open Sim_cpu
open Sim_asm.Asm
module Mb = Workloads.Microbench_prog

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Every unhooked form the claim covers, as two blocks: a straight-line
   run ending in [call], and the callee's [ret]. *)
let prog =
  [
    Label "start";
    add_rr Isa.rax Isa.rbx;
    sub_rr Isa.rcx Isa.rax;
    xor_rr Isa.rdx Isa.rcx;
    i (Isa.Alu_rr (Isa.And, Isa.rsi, Isa.rdx));
    i (Isa.Alu_rr (Isa.Or, Isa.rsi, Isa.rax));
    i (Isa.Alu_rr (Isa.Mul, Isa.rdx, Isa.rbx));
    i (Isa.Alu_rr (Isa.Div, Isa.rdx, Isa.r11));
    i (Isa.Alu_rr (Isa.Rem, Isa.rdx, Isa.r11));
    add_ri Isa.rax 7;
    sub_ri Isa.rbx 3;
    i (Isa.Alu_ri (Isa.Xor, Isa.rcx, 0x55l));
    cmp_rr Isa.rax Isa.rbx;
    cmp_ri Isa.rax 9;
    i (Isa.Shift (Isa.Shl, Isa.rax, 3));
    i (Isa.Shift (Isa.Shr, Isa.rbx, 2));
    i (Isa.Shift (Isa.Sar, Isa.rcx, 1));
    store Isa.rdi 0 Isa.rax;
    load Isa.rdx Isa.rdi 0;
    store Isa.rdi 8 Isa.rbx;
    load Isa.rsi Isa.rdi 8;
    push Isa.rax;
    push Isa.rbx;
    pop Isa.rcx;
    pop Isa.rdx;
    i (Isa.Movq_xr (1, Isa.rax));
    i (Isa.Movq_rx (Isa.r8, 1));
    i (Isa.Pxor (2, 1));
    i (Isa.Pxor (3, 3));
    mov_rr Isa.r9 Isa.rax;
    mov_ri Isa.r10 5;
    Call_l "callee";
    Label "callee";
    ret;
  ]

let test_block_ops_allocate_nothing () =
  let blob = Sim_asm.Asm.assemble ~base:0x1000 prog in
  let m = Mem.create () in
  Mem.map m ~addr:0x1000 ~len:Mem.page_size ~perm:Mem.rx;
  Mem.poke_bytes m 0x1000 blob.Sim_asm.Asm.bytes;
  Mem.map m ~addr:0x8000 ~len:Mem.page_size ~perm:Mem.rw;
  let c = Cpu.create () in
  let ic = Icache.create () in
  let rec block_at rip n =
    if n = 0 then Alcotest.failf "no block compiled at %#x" rip
    else
      match Icache.lookup ic m rip ~blocks:true with
      | Icache.Block (b, 0) -> b
      | _ -> block_at rip (n - 1)
  in
  let b1 = block_at (Sim_asm.Asm.symbol blob "start") 16 in
  let b2 = block_at (Sim_asm.Asm.symbol blob "callee") 16 in
  Alcotest.(check int) "first block runs to the call" 31
    (Array.length b1.Icache.b_ops);
  let reset () =
    Cpu.poke_reg c Isa.rdi 0x8000L;
    Cpu.poke_reg c Isa.rsp 0x8800L;
    Cpu.poke_reg c Isa.r11 3L
  in
  let ops = Array.append b1.Icache.b_ops b2.Icache.b_ops in
  let run () =
    for j = 0 to Array.length ops - 1 do
      ignore (ops.(j) c m)
    done
  in
  reset ();
  run ();
  let w =
    words (fun () ->
        for _ = 1 to 1000 do
          reset ();
          run ()
        done)
  in
  (* [reset] pokes preallocated constants, so it allocates nothing. *)
  Alcotest.(check (float 0.)) "minor words over 1000 runs" 0. w

(* Words per iteration of the Table II loop: the difference of two
   runs, so setup and teardown cancel. *)
let per_iter mech =
  let run n = words (fun () -> ignore (Mb.run ~iters:n mech)) in
  ignore (run 200);
  (run 2200 -. run 200) /. 2000.

(* Bounds per mechanism, in words per iteration: the measured value
   (in the comment) plus ~10%, so an unrelated change does not trip
   them.  A cut below them should lower the bound. *)
let table2_bounds =
  [
    (Mb.Native, 14.) (* 12.6 *);
    (Mb.Zpoline, 70.) (* 63.2 *);
    (Mb.Lazypoline_full, 86.) (* 78.3 *);
    (Mb.Sud, 213.) (* 193.6 *);
    (Mb.Seccomp_user, 514.) (* 467.3 *);
    (Mb.Ptrace, 103.) (* 93.7 *);
  ]

let test_table2_words () =
  List.iter
    (fun (mech, bound) ->
      let w = per_iter mech in
      Printf.printf "%s: %.2f words/iter\n%!" (Mb.config_name mech) w;
      if w > bound then
        Alcotest.failf "%s: %.2f words per iteration, bound %.0f"
          (Mb.config_name mech) w bound)
    table2_bounds

let tests =
  [
    Alcotest.test_case "block ops allocate nothing" `Quick
      test_block_ops_allocate_nothing;
    Alcotest.test_case "Table II words per iteration" `Quick test_table2_words;
  ]
