(** The x64lite CPU: single-instruction stepping and the threaded-code
    block runner.

    A [t] is one task's register context; [step] executes a single
    instruction against a {!Sim_mem.Mem.t} and reports what happened.
    The kernel owns the run loop, cycle accounting and trap handling.
    The register context itself lives in {!Ctx} and is re-exported
    here, so the rest of the tree keeps addressing it as [Cpu.t] and
    the outcomes as [Cpu.Stepped] and friends.  What an instruction
    does is defined once, by {!Icache.compile_op}; both paths below
    only run its ops.

    Register-access hooks feed the Pin-style dynamic analysis
    (Section IV-B of the paper): every architectural register read and
    write can be observed without perturbing execution.  The kernel
    single-steps a hooked task (it never enters a block), so the
    analyses observe every instruction boundary. *)

open Sim_isa
open Sim_mem
include Ctx

(** {1 Stepping} *)

(** Execute the one instruction at [rip], given what
    {!Icache.lookup} returned for it: the entry's op, or — for [Miss]
    (and a [Block], which this never enters) — a fresh decode through
    the permission-checked byte fetch, compiled and run.  Never raises:
    memory faults and decode errors are reported as outcomes; a fault
    in the fetch leaves [last_cost] untouched. *)
let step_hit (c : t) (mem : Mem.t) (hit : Icache.hit) : outcome =
  incr retired;
  try
    match hit with
    | Icache.Entry e -> e.Icache.op c mem
    | Icache.Miss | Icache.Block _ ->
        let instr, len = Decode.decode (fun i -> Mem.fetch_u8 mem (c.rip + i)) in
        Icache.compile_op instr (c.rip + len) c mem
  with
  | Mem.Fault (a, acc) -> Fault (a, acc)
  | Exit -> Fault_arith
  | Decode.Invalid _ -> Bad_instr c.rip

(** Execute one instruction.  With [icache], the op comes from the
    page-versioned decoded-instruction cache; a hit skips the per-byte
    fetch and decode entirely.  Safe by construction: every mutation
    of executable memory bumps the page generation the cache validates
    against (see {!Icache}), so self-modifying code — lazypoline's
    lazy [syscall → call rax] rewrite, JIT emission — is observed on
    the very next fetch of the patched address. *)
let step ?icache (c : t) (mem : Mem.t) : outcome =
  step_hit c mem
    (match icache with
    | Some ic -> Icache.lookup ic mem c.rip ~blocks:false
    | None -> Icache.Miss)

(** {1 The block runner (enter-block / run-block / exit-block)}

    The enter phase is the kernel's: one {!Icache.lookup} with
    [~blocks] set when the engine is enabled and the task is
    hook-free.  The run phase is {!run_block} below.  The exit phase is
    again the kernel's: charge any bulk-accumulated cycles and handle
    the terminal outcome through the same per-outcome arms a single
    step uses. *)

(** Run compiled block [blk] from op index [idx0].

    [budget] is the number of [last_cost] units this run may {e
    start}: op [i] executes iff the units accumulated by its
    predecessors are below it — exactly the single-step loop's
    [clk < slice_end] pre-check with the clock advance factored
    through the kernel's per-instruction cost multiplier.

    [per_op] (when set) is called with each op's [last_cost] units
    immediately after the op retires, with [rip] already advanced —
    the same point a single step's charge fires, so an attached
    profiler sees identical tick attribution.  When [None], units
    accumulate and [bulk] is called once with them (if nonzero) before
    the runner returns: one charge (clock and task-cycle sums are
    identical; only a profiler could tell, and it is absent on this
    path).

    [chaos] (when set) is the per-retired-instruction preemption
    draw, called after every op exactly as the kernel's loop does
    around single steps; a [true] return stops the block at that
    instruction boundary (the caller's callback records that it
    fired).

    The runner re-checks the code-mutation epoch after every op that
    can write memory: if the store moved the executing block's own
    page generation (mid-block SMC), the block stops at the next
    boundary — the same point the next single-step lookup would
    observe the new bytes.  Stores to other pages never invalidate
    this block's ops and execution continues, matching the
    per-page revalidation of single steps.

    Returns the terminal outcome ([Stepped] for a completed or merely
    interrupted block; [Fault _]/[Fault_arith] from a raising op, with
    [rip] left at the faulting instruction).  Allocates nothing on the
    observer-free paths. *)
let run_block (c : t) (mem : Mem.t) (blk : Icache.block) (idx0 : int)
    ~(budget : int) ~(per_op : (int -> unit) option) ~(bulk : int -> unit)
    ~(chaos : (unit -> bool) option) : outcome =
  let ops = blk.Icache.b_ops and writes = blk.Icache.b_writes in
  let n = Array.length ops in
  let pn = blk.Icache.b_pn and bgen = blk.Icache.b_gen in
  let i = ref idx0 and acc = ref 0 in
  let fused = ref (-1) in  (* insns completed on the fused path *)
  let outcome = ref Stepped in
  let preempted = ref false and smc = ref false and stop = ref false in
  (try
     match (per_op, chaos) with
     | None, None
       when idx0 = 0
            && (not blk.Icache.b_anywrites)
            && budget >= blk.Icache.b_maxunits ->
         (* Fastest path: whole-block entry with no observers, no
            memory-writing ops (so no SMC checks) and a slice budget
            that provably cannot run out mid-block — nothing can stop
            the run, so it executes the superinstruction form, where
            a whole nop sled is one closure.  Per-instruction states
            between fops are unobservable here, which is what makes
            the fusion invisible. *)
         let fops = blk.Icache.b_fops and flens = blk.Icache.b_flen in
         let m = Array.length fops in
         let j = ref 0 in
         fused := 0;
         while !j < m do
           acc := !acc + (Array.unsafe_get fops !j) c mem;
           fused := !fused + Array.unsafe_get flens !j;
           incr j
         done;
         i := n
     | None, None ->
         (* Fast path: no per-op observers; one bulk charge at exit. *)
         while (not !stop) && !i < n && !acc < budget do
           ignore ((Array.unsafe_get ops !i) c mem);
           acc := !acc + c.last_cost;
           if Array.unsafe_get writes !i then begin
             let e = Mem.code_mut_count mem in
             if e <> blk.Icache.b_epoch then begin
               blk.Icache.b_epoch <- e;
               if Mem.page_gen mem pn <> bgen then begin
                 smc := true;
                 stop := true
               end
             end
           end;
           incr i
         done
     | _ ->
         while (not !stop) && !i < n && !acc < budget do
           ignore ((Array.unsafe_get ops !i) c mem);
           let u = c.last_cost in
           acc := !acc + u;
           (match per_op with Some f -> f u | None -> ());
           if Array.unsafe_get writes !i then begin
             let e = Mem.code_mut_count mem in
             if e <> blk.Icache.b_epoch then begin
               blk.Icache.b_epoch <- e;
               if Mem.page_gen mem pn <> bgen then begin
                 smc := true;
                 stop := true
               end
             end
           end;
           (match chaos with
           | Some f ->
               if f () then begin
                 preempted := true;
                 stop := true
               end
           | None -> ());
           incr i
         done
   with
  | Mem.Fault (a, acc') -> outcome := Fault (a, acc')
  | Exit -> outcome := Fault_arith);
  (* [!i - idx0] ops completed (the fused path counts for itself); a
     faulting op still counts as retired, matching {!step_hit}
     (its [incr retired] precedes the op). *)
  let nrun = if !fused >= 0 then !fused else !i - idx0 in
  let nret =
    match !outcome with Fault _ | Fault_arith -> nrun + 1 | _ -> nrun
  in
  retired := !retired + nret;
  Icache.g_block_insns := !Icache.g_block_insns + nret;
  (match !outcome with
  | Fault _ | Fault_arith -> incr Icache.g_bexit_fault
  | _ ->
      if !preempted then incr Icache.g_bexit_preempt
      else if !smc then incr Icache.g_bexit_smc
      else if !i < n && !acc >= budget then incr Icache.g_bexit_budget
      else incr Icache.g_bexit_end);
  (match per_op with None when !acc > 0 -> bulk !acc | _ -> ());
  !outcome
