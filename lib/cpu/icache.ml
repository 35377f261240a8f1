(** Page-versioned decoded-instruction cache, the instruction compiler
    and the threaded-code block compiler.

    {2 One instruction semantics}

    {!compile_op} turns a decoded instruction into an {!op}: a closure
    over the register context and memory that performs the
    instruction and returns its {!Ctx.outcome}.  It is the only code
    that executes an x64lite instruction.  {!Cpu.step} runs one op,
    the block runner in {!Cpu} runs arrays of them, and the uncached
    path compiles the op of a freshly fetched decode and runs it.  An
    op does its cycle accounting first ([nop_run]/[last_cost]; even a
    faulting instruction retires for its cost), then its body, then
    sets [rip], so a raised [Mem.Fault]/[Exit] leaves [rip] at the
    faulting instruction.  Register accesses go through [get_reg],
    [set_reg] and [fire] below in a fixed order, so the Pin analyses
    see the same event stream whichever path ran the op.

    {2 The decode cache}

    Sits between {!Sim_mem.Mem} and {!Cpu}: the CPU asks this module
    for the entry at [rip] before falling back to the byte-at-a-time
    fetch/decode path.  Entries are keyed by (page number, in-page
    offset), carry the instruction's compiled op, and are validated
    against the page's generation counter in {!Sim_mem.Mem} — every
    writer of executable memory (the lazypoline SIGSYS rewriter,
    zpoline's load-time sweep, JIT emission, the loader,
    mmap/mprotect/munmap) bumps that generation through the one
    interface in [Mem], so a hit can never return a stale decode of
    self-modified code.  This is the same invalidation problem real
    binary-translation caches face against SMC, solved the same way:
    versioned code pages.

    Validation is pull-based and two-level:

    + the address-space-wide {e code-mutation epoch}
      ({!Sim_mem.Mem.code_mut_count}) is compared against the value
      memoised at the last validation — while nothing executable has
      changed anywhere, a hit on the current page costs an array read;
    + when the epoch has moved, the page's generation is re-read and
      compared to the cached one; on mismatch the page's entries (and
      its compiled blocks) are dropped and re-filled from the current
      bytes.

    Entries never span a page boundary (an instruction straddling two
    pages would need both generations checked); such instructions take
    the uncached path every time — they are rare (at most one per page
    seam) and correctness stays trivially per-page.

    A miss decodes ahead through the straight-line run following the
    missed instruction and pre-fills those entries too, amortising
    cold-code decode.  Per-entry keying makes this unconditionally
    safe: an entry at offset [o] is the decode of the bytes at [o],
    however execution reaches it.

    {2 The threaded-code block engine}

    On top of the per-instruction cache sits a superblock compiler:
    once an offset has been executed {!heat_threshold} times through
    the per-instruction path, the straight-line run starting there
    becomes a block — the array of its entries' ops.  The block runner
    in {!Cpu} then retires the whole run without per-instruction
    lookup, accumulating the exact per-instruction cycle costs for the
    kernel to charge in bulk.

    Blocks never span a page (entries stop at the seam), so a block's
    validity is exactly one page generation: {!validate} drops a
    page's blocks together with its entries whenever the generation
    moves, and the runner re-checks the generation after every
    memory-writing op so a store into the currently-executing block
    stops it at the next instruction boundary — the same point a
    per-instruction lookup would observe the new bytes.

    Blocks exclude [Syscall]/[Hypercall]/[Hlt]/[Int3] (trap outcomes
    the kernel must see per-instruction) and [Rdtsc] (reads the cycle
    clock at execution time, which bulk charging would skew); pure
    control flow ([Jmp]/[Jcc]/[Call]/[Call_reg]/[Jmp_reg]/[Ret]) may
    terminate a block.  The kernel enters blocks only when no Pin-style
    hook is installed, so a hooked task observes every instruction
    boundary. *)

open Sim_isa
open Sim_mem

(** One compiled instruction: executes against the context and memory,
    sets [rip] and returns the outcome; raises [Mem.Fault] on a memory
    fault and [Exit] on division by zero. *)
type op = Ctx.t -> Mem.t -> Ctx.outcome

type entry = {
  instr : Isa.instr;
  ilen : int;  (** encoded length *)
  op : op;  (** [instr] compiled for this address *)
}

(** A compiled superblock: a straight-line run within one page.  Valid
    exactly while page [b_pn] still has generation [b_gen]. *)
type block = {
  b_pn : int;  (** page the block's bytes live in *)
  b_gen : int;  (** page generation the ops were compiled from *)
  b_ops : op array;
  b_writes : bool array;
      (** op i can write memory — the runner re-checks the
          code-mutation epoch after these (mid-block SMC) *)
  b_anywrites : bool;  (** any [b_writes] set — false lets the runner
                           skip SMC checks for the whole block *)
  b_maxunits : int;
      (** upper bound on the [last_cost] units the whole block can
          accumulate; a slice budget at or above this needs no per-op
          budget checks *)
  mutable b_epoch : int;
      (** memo of the last address-space code-mutation count the
          runner observed from this block — a cheap filter in front of
          the authoritative page-generation check, so a stale value is
          harmless (it only costs one extra [page_gen] read) *)
  b_fops : (Ctx.t -> Mem.t -> int) array;
      (** superinstruction form: each fop covers [b_flen.(j)]
          consecutive ops and returns the [last_cost] units they
          accumulate.  Runs of plain [nop] collapse into one fop that
          performs the whole [nop_run] arithmetic in O(1) — the
          zpoline sled killer.  Only valid on the cannot-stop path
          (whole-block entry, no observers, no writes, budget covers
          [b_maxunits]): intermediate per-instruction states are
          unobservable there, so skipping them is invisible.  Empty
          for blocks with memory-writing ops, which never take that
          path. *)
  b_flen : int array;  (** instructions covered by each fop *)
}

(** Result of a {!lookup}.  The page tables store these values
    directly, so a lookup allocates nothing. *)
type hit =
  | Block of block * int
      (** compiled block covering [rip], starting at this op index *)
  | Entry of entry  (** per-instruction decode (cold or uncompilable) *)
  | Miss  (** uncached byte-at-a-time path *)

type page_entries = {
  mutable gen : int;  (** Mem generation the decodes are valid for *)
  entries : hit array;
      (** one slot per in-page offset: [Entry] once decoded, else
          [Miss] *)
  mutable blocks : hit array;
      (** offset of ANY compiled op -> [Block (its block, op index)],
          so mid-block entry (signal return, budget resume, jumps into
          the middle) lands inside the block; [Miss] elsewhere;
          allocated lazily on the first engine lookup of the page *)
  mutable heat : int array;
      (** per-offset execution counter driving compilation; [min_int]
          marks offsets that failed to compile (excluded head
          instruction) so they stop re-attempting *)
  mutable nblocks : int;  (** distinct blocks registered in [blocks] *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;  (** lookups that filled a fresh decode *)
  mutable invalidations : int;  (** page drops due to a stale generation *)
  mutable fallbacks : int;
      (** lookups punted to the uncached path: page not executable,
          instruction straddles a page seam, or undecodable bytes *)
}

(** Block-engine counters (per cache instance). *)
type bstats = {
  mutable bs_compiled : int;  (** blocks compiled *)
  mutable bs_hits : int;  (** block entries (not per-op) *)
  mutable bs_kills : int;  (** blocks dropped by page invalidation *)
  mutable bs_fb_cold : int;
      (** per-instruction fallbacks below the heat threshold *)
  mutable bs_fb_uncompilable : int;
      (** per-instruction fallbacks at offsets that cannot head a
          block (syscall/hypercall/hlt/int3/rdtsc, undecodable) *)
}

type t = {
  pages : (int, page_entries) Hashtbl.t;
  stats : stats;
  bstats : bstats;
  (* Memo of the last validated page: while the epoch is unchanged and
     execution stays on the page, lookups skip both hashtables. *)
  mutable last_pn : int;
  mutable last_pe : page_entries;
  mutable last_epoch : int;
  mutable on_invalidate : (int -> unit) option;
      (** observer called with the page number when a stale generation
          drops that page's entries (the event tracer's hook) *)
}

(* Process-wide counters, aggregated across every cache instance that
   ever ran; the benchmark harness reports these alongside wall-clock
   throughput.  Kept separate from [stats] so per-kernel tests can
   still assert on their own instance. *)
let g_hits = ref 0
let g_misses = ref 0
let g_invalidations = ref 0
let g_fallbacks = ref 0

let totals () = (!g_hits, !g_misses, !g_invalidations, !g_fallbacks)

(* Block-engine process-wide counters.  The first five mirror
   [bstats]; [g_block_insns] and the [g_bexit_*] exit-reason counters
   are maintained by the block runner in {!Cpu}. *)
let g_blocks_compiled = ref 0
let g_block_hits = ref 0
let g_block_kills = ref 0
let g_block_fb_cold = ref 0
let g_block_fb_uncompilable = ref 0
let g_block_fb_hooked = ref 0
(* instructions retired inside blocks *)
let g_block_insns = ref 0

(* Exit reasons: ran to the last op; slice budget exhausted mid-block;
   a store invalidated the executing block; an op faulted (Mem fault
   or division); chaos preemption fired mid-block. *)
let g_bexit_end = ref 0
let g_bexit_budget = ref 0
let g_bexit_smc = ref 0
let g_bexit_fault = ref 0
let g_bexit_preempt = ref 0

let block_totals () =
  ( !g_blocks_compiled, !g_block_hits, !g_block_kills, !g_block_insns,
    !g_block_fb_cold + !g_block_fb_uncompilable + !g_block_fb_hooked )

let fresh_stats () = { hits = 0; misses = 0; invalidations = 0; fallbacks = 0 }

let fresh_bstats () =
  { bs_compiled = 0; bs_hits = 0; bs_kills = 0; bs_fb_cold = 0;
    bs_fb_uncompilable = 0 }

let dummy_page () =
  { gen = -2; entries = [||]; blocks = [||]; heat = [||]; nblocks = 0 }

(** [create ()] makes an empty cache for one address space.  Caches
    must not be shared across address spaces: two diverged forks of
    the same [Mem.t] carry overlapping generation numbers for
    different bytes. *)
let create () =
  {
    pages = Hashtbl.create 32;
    stats = fresh_stats ();
    bstats = fresh_bstats ();
    last_pn = -1;
    last_pe = dummy_page ();
    last_epoch = -1;
    on_invalidate = None;
  }

let stats t = t.stats
let bstats t = t.bstats

(** Count one engine bypass due to an installed register-access hook
    (maintained by the kernel's run loop, which performs that check). *)
let note_hooked_fallback (_t : t) = incr g_block_fb_hooked

(** Drop every cached decode and compiled block (keeps counters).  Not
    needed for correctness — generation validation catches everything
    — but useful for tests and for execve-style full resets. *)
let clear t =
  Hashtbl.reset t.pages;
  t.last_pn <- -1;
  t.last_pe <- dummy_page ();
  t.last_epoch <- -1

(* ------------------------------------------------------------------ *)
(* The instruction compiler                                            *)

(* Execution helpers, next to their only callers.

   Register accesses as the Pin analyses observe them: the event is
   built only when a hook is installed, so an unhooked access costs one
   field test.  These three inline into every op.  Register indices
   come from the decoder, which never yields one above 15.

   Values stay unboxed inside an op as long as they are let-bound
   before being handed on: an [int64] passed straight from one inlined
   helper's result into another's argument is boxed, an [int64] bound
   with [let] first is not. *)
let[@inline] fire (c : Ctx.t) e = match c.hook with None -> () | Some f -> f e

let[@inline] get_reg (c : Ctx.t) r =
  (match c.hook with None -> () | Some f -> f (Ctx.Reg_read r));
  Bytes.get_int64_le c.regs (r lsl 3)

let[@inline] set_reg (c : Ctx.t) r (v : int64) =
  (match c.hook with None -> () | Some f -> f (Ctx.Reg_write r));
  Bytes.set_int64_le c.regs (r lsl 3) v

(* The implicit rsp of push/pop/call/ret, read and written without a
   hook event. *)
let[@inline] rsp (c : Ctx.t) =
  Int64.to_int (Bytes.get_int64_le c.regs (Isa.rsp lsl 3))

let[@inline] set_rsp (c : Ctx.t) sp =
  Bytes.set_int64_le c.regs (Isa.rsp lsl 3) (Int64.of_int sp)

(* 64-bit memory words.  A word inside one page goes through the
   checked page accessor and stays unboxed; a page-straddling word
   takes [Mem]'s byte path (and boxes).  Faults are [Mem]'s. *)
let[@inline] in_page a = a land Mem.page_mask <= Mem.page_size - 8

let[@inline] load64 mem a =
  if in_page a then
    Bytes.get_int64_le (Mem.page_for_read mem a) (a land Mem.page_mask)
  else Mem.read_u64 mem a

let[@inline] store64 mem a (v : int64) =
  if in_page a then
    Bytes.set_int64_le (Mem.page_for_write mem a) (a land Mem.page_mask) v
  else Mem.write_u64 mem a v

(* Protection-key write check (no-op while pkru = 0). *)
let wcheck (c : Ctx.t) mem addr =
  if c.pkru <> 0 then begin
    let pk = Mem.pkey_at mem addr in
    if pk <> 0 && c.pkru land (1 lsl pk) <> 0 then
      raise (Mem.Fault (addr, Mem.Write))
  end

(* Stack pushes and pops.  The implicit rsp update of
   push/pop/call/ret fires no hook event; [push_reg] and [pop_reg]
   fire the explicit operand's.  They stay out of line: inlining them
   into every op made cold code slower. *)
let push_int (c : Ctx.t) mem v =
  let sp = rsp c - 8 in
  wcheck c mem sp;
  let v = Int64.of_int v in
  store64 mem sp v;
  set_rsp c sp

let push_reg (c : Ctx.t) mem r =
  let v = get_reg c r in
  let sp = rsp c - 8 in
  wcheck c mem sp;
  store64 mem sp v;
  set_rsp c sp

let pop_int (c : Ctx.t) mem =
  let sp = rsp c in
  let v = load64 mem sp in
  set_rsp c (sp + 8);
  Int64.to_int v

let pop_reg (c : Ctx.t) mem r =
  let sp = rsp c in
  let v = load64 mem sp in
  set_rsp c (sp + 8);
  set_reg c r v

let x87_push (c : Ctx.t) v =
  let x = c.x in
  (* stack overflow clobbers the top slot, as good as anything *)
  if x.st_sp >= 8 then x.st_sp <- 7;
  Ctx.set_st x x.st_sp v;
  x.st_sp <- x.st_sp + 1;
  fire c Ctx.X87_write

let x87_pop (c : Ctx.t) =
  fire c Ctx.X87_read;
  let x = c.x in
  if x.st_sp = 0 then 0L
  else begin
    x.st_sp <- x.st_sp - 1;
    Ctx.st x x.st_sp
  end

(* Effective address with segment and displacement resolved at compile
   time; the base-register read is the one the Pin hook observes. *)
let ea_of seg b disp : Ctx.t -> int =
  let d = Int32.to_int disp in
  match seg with
  | Isa.Seg_none -> fun c -> Int64.to_int (get_reg c b) + d
  | Isa.Seg_fs -> fun c -> c.Ctx.fs_base + Int64.to_int (get_reg c b) + d
  | Isa.Seg_gs -> fun c -> c.Ctx.gs_base + Int64.to_int (get_reg c b) + d

let cond_of cond : Ctx.t -> bool =
  match cond with
  | Isa.Eq -> fun c -> c.Ctx.zf
  | Isa.Ne -> fun c -> not c.Ctx.zf
  | Isa.Lt -> fun c -> c.Ctx.sf
  | Isa.Le -> fun c -> c.Ctx.sf || c.Ctx.zf
  | Isa.Gt -> fun c -> not (c.Ctx.sf || c.Ctx.zf)
  | Isa.Ge -> fun c -> not c.Ctx.sf
  | Isa.Ult -> fun c -> c.Ctx.cf
  | Isa.Uge -> fun c -> not c.Ctx.cf

(* The cycle-accounting prologue of every op but [nop], [nopw] and
   [wrpkru]: one cycle, and the nop run is broken. *)
let[@inline] a1 (c : Ctx.t) =
  c.nop_run <- 0;
  c.last_cost <- 1

let[@inline] setf (c : Ctx.t) (v : int64) =
  c.zf <- Int64.equal v 0L;
  c.sf <- Int64.compare v 0L < 0;
  c.cf <- false

let[@inline] cmpf (c : Ctx.t) a b =
  c.zf <- Int64.equal a b;
  c.sf <- Int64.compare a b < 0;
  c.cf <- Int64.unsigned_compare a b < 0

(* The ALU and shift operations, matched inside the op so operands and
   result stay unboxed ([Div]/[Rem] callers check for zero first). *)
let[@inline] alu op a b =
  match op with
  | Isa.Add -> Int64.add a b
  | Isa.Sub -> Int64.sub a b
  | Isa.And -> Int64.logand a b
  | Isa.Or -> Int64.logor a b
  | Isa.Xor -> Int64.logxor a b
  | Isa.Mul -> Int64.mul a b
  | Isa.Div -> Int64.div a b
  | Isa.Rem -> Int64.rem a b
  | Isa.Cmp -> assert false

let[@inline] shift op a n =
  match op with
  | Isa.Shl -> Int64.shift_left a n
  | Isa.Shr -> Int64.shift_right_logical a n
  | Isa.Sar -> Int64.shift_right a n

(** Whether [ins] may store to memory (so may modify code). *)
let writes_mem = function
  | Isa.Call_reg _ | Isa.Push _ | Isa.Store _ | Isa.Store8 _ | Isa.Call _
  | Isa.Movups_store _ | Isa.Fstp _ ->
      true
  | _ -> false

(** Compile one instruction whose encoding ends at [next] into its
    {!op}.  Total over what the decoder produces; raises
    [Invalid_argument] on [Alu_ri] with [Mul]/[Div]/[Rem], which has
    no encoding. *)
let compile_op (ins : Isa.instr) (next : int) : op =
  let open Ctx in
  match ins with
  | Isa.Nop ->
      fun c _ ->
        c.nop_run <- c.nop_run + 1;
        c.last_cost <- (if c.nop_run land 3 = 0 then 1 else 0);
        c.rip <- next;
        Stepped
  | Isa.Nopw n ->
      fun c _ ->
        c.nop_run <- 0;
        c.last_cost <- n;
        c.rip <- next;
        Stepped
  | Isa.Hlt ->
      fun c _ ->
        a1 c;
        Halted
  | Isa.Int3 ->
      fun c _ ->
        a1 c;
        c.rip <- next;
        Trap_breakpoint
  | Isa.Syscall ->
      fun c _ ->
        a1 c;
        c.rip <- next;
        Trap_syscall
  | Isa.Hypercall n ->
      let o = Trap_hypercall n in
      fun c _ ->
        a1 c;
        c.rip <- next;
        o
  | Isa.Rdtsc ->
      fun c _ ->
        a1 c;
        let v = c.now () in
        set_reg c Isa.rax v;
        c.rip <- next;
        Stepped
  | Isa.Ret ->
      fun c mem ->
        a1 c;
        c.rip <- pop_int c mem;
        Stepped
  | Isa.Wrpkru r ->
      fun c _ ->
        (* real WRPKRU serialises; ~23 cycles on current parts *)
        c.nop_run <- 0;
        c.last_cost <- 23;
        c.pkru <- Int64.to_int (get_reg c r) land 0xFFFF;
        c.rip <- next;
        Stepped
  | Isa.Rdpkru r ->
      fun c _ ->
        a1 c;
        let v = Int64.of_int c.pkru in
        set_reg c r v;
        c.rip <- next;
        Stepped
  | Isa.Call_reg r ->
      fun c mem ->
        a1 c;
        let tgt = Int64.to_int (get_reg c r) in
        push_int c mem next;
        c.rip <- tgt;
        Stepped
  | Isa.Jmp_reg r ->
      fun c _ ->
        a1 c;
        c.rip <- Int64.to_int (get_reg c r);
        Stepped
  | Isa.Push r ->
      fun c mem ->
        a1 c;
        push_reg c mem r;
        c.rip <- next;
        Stepped
  | Isa.Pop r ->
      fun c mem ->
        a1 c;
        pop_reg c mem r;
        c.rip <- next;
        Stepped
  | Isa.Mov_rr (d, s) ->
      fun c _ ->
        a1 c;
        let v = get_reg c s in
        set_reg c d v;
        c.rip <- next;
        Stepped
  | Isa.Mov_ri (r, v) ->
      fun c _ ->
        a1 c;
        set_reg c r v;
        c.rip <- next;
        Stepped
  | Isa.Mov_ri32 (r, v) ->
      let v = Int64.of_int32 v in
      fun c _ ->
        a1 c;
        set_reg c r v;
        c.rip <- next;
        Stepped
  | Isa.Load (seg, d, b, disp) ->
      let ea = ea_of seg b disp in
      fun c mem ->
        a1 c;
        let v = load64 mem (ea c) in
        set_reg c d v;
        c.rip <- next;
        Stepped
  | Isa.Store (seg, b, disp, s) ->
      let ea = ea_of seg b disp in
      fun c mem ->
        a1 c;
        let a = ea c in
        wcheck c mem a;
        let v = get_reg c s in
        store64 mem a v;
        c.rip <- next;
        Stepped
  | Isa.Load8 (seg, d, b, disp) ->
      let ea = ea_of seg b disp in
      fun c mem ->
        a1 c;
        let v = Int64.of_int (Mem.read_u8 mem (ea c)) in
        set_reg c d v;
        c.rip <- next;
        Stepped
  | Isa.Store8 (seg, b, disp, s) ->
      let ea = ea_of seg b disp in
      fun c mem ->
        a1 c;
        let a = ea c in
        wcheck c mem a;
        Mem.write_u8 mem a (Int64.to_int (get_reg c s) land 0xFF);
        c.rip <- next;
        Stepped
  | Isa.Lea (d, b, disp) ->
      let ea = ea_of Isa.Seg_none b disp in
      fun c _ ->
        a1 c;
        let v = Int64.of_int (ea c) in
        set_reg c d v;
        c.rip <- next;
        Stepped
  | Isa.Alu_rr (Isa.Cmp, d, s) ->
      fun c _ ->
        a1 c;
        let a = get_reg c d in
        let b = get_reg c s in
        cmpf c a b;
        c.rip <- next;
        Stepped
  | Isa.Alu_rr (((Isa.Div | Isa.Rem) as op), d, s) ->
      fun c _ ->
        a1 c;
        let a = get_reg c d in
        let b = get_reg c s in
        if Int64.equal b 0L then raise Exit;
        let v = alu op a b in
        set_reg c d v;
        setf c v;
        c.rip <- next;
        Stepped
  | Isa.Alu_rr (op, d, s) ->
      fun c _ ->
        a1 c;
        let a = get_reg c d in
        let b = get_reg c s in
        let v = alu op a b in
        set_reg c d v;
        setf c v;
        c.rip <- next;
        Stepped
  | Isa.Alu_ri (Isa.Cmp, r, imm) ->
      let b = Int64.of_int32 imm in
      fun c _ ->
        a1 c;
        let a = get_reg c r in
        cmpf c a b;
        c.rip <- next;
        Stepped
  | Isa.Alu_ri ((Isa.Mul | Isa.Div | Isa.Rem), _, _) ->
      invalid_arg "Icache.compile_op: ALU op with no immediate form"
  | Isa.Alu_ri (op, r, imm) ->
      let b = Int64.of_int32 imm in
      fun c _ ->
        a1 c;
        let a = get_reg c r in
        let v = alu op a b in
        set_reg c r v;
        setf c v;
        c.rip <- next;
        Stepped
  | Isa.Shift (op, r, n) ->
      fun c _ ->
        a1 c;
        let a = get_reg c r in
        let v = shift op a n in
        set_reg c r v;
        setf c v;
        c.rip <- next;
        Stepped
  | Isa.Jmp rel ->
      let tgt = next + Int32.to_int rel in
      fun c _ ->
        a1 c;
        c.rip <- tgt;
        Stepped
  | Isa.Jcc (cond, rel) ->
      let test = cond_of cond and tgt = next + Int32.to_int rel in
      fun c _ ->
        a1 c;
        c.rip <- (if test c then tgt else next);
        Stepped
  | Isa.Call rel ->
      let tgt = next + Int32.to_int rel in
      fun c mem ->
        a1 c;
        push_int c mem next;
        c.rip <- tgt;
        Stepped
  | Isa.Setcc (cond, r) ->
      let test = cond_of cond in
      fun c _ ->
        a1 c;
        set_reg c r (if test c then 1L else 0L);
        c.rip <- next;
        Stepped
  | Isa.Movq_xr (x, r) ->
      let wx = Xmm_write x and lo = 16 * x in
      fun c _ ->
        a1 c;
        let v = get_reg c r in
        fire c wx;
        Bytes.set_int64_le c.x.img lo v;
        Bytes.set_int64_le c.x.img (lo + 8) 0L;
        c.rip <- next;
        Stepped
  | Isa.Movq_rx (r, x) ->
      let rx = Xmm_read x and lo = 16 * x in
      fun c _ ->
        a1 c;
        fire c rx;
        let v = Bytes.get_int64_le c.x.img lo in
        set_reg c r v;
        c.rip <- next;
        Stepped
  | Isa.Movups_load (seg, x, b, disp) ->
      let ea = ea_of seg b disp and wx = Xmm_write x and lo = 16 * x in
      fun c mem ->
        a1 c;
        let a = ea c in
        let vlo = load64 mem a in
        let vhi = load64 mem (a + 8) in
        fire c wx;
        Bytes.set_int64_le c.x.img lo vlo;
        Bytes.set_int64_le c.x.img (lo + 8) vhi;
        c.rip <- next;
        Stepped
  | Isa.Movups_store (seg, b, disp, x) ->
      let ea = ea_of seg b disp and rx = Xmm_read x and lo = 16 * x in
      fun c mem ->
        a1 c;
        let a = ea c in
        wcheck c mem a;
        fire c rx;
        let vlo = Bytes.get_int64_le c.x.img lo in
        store64 mem a vlo;
        let vhi = Bytes.get_int64_le c.x.img (lo + 8) in
        store64 mem (a + 8) vhi;
        c.rip <- next;
        Stepped
  | Isa.Punpcklqdq (d, s) ->
      let rs = Xmm_read s and wd = Xmm_write d in
      fun c _ ->
        a1 c;
        fire c rs;
        fire c wd;
        let v = Bytes.get_int64_le c.x.img (16 * s) in
        Bytes.set_int64_le c.x.img ((16 * d) + 8) v;
        c.rip <- next;
        Stepped
  | Isa.Pxor (d, s) when d = s ->
      let rs = Xmm_read s and wd = Xmm_write d in
      fun c _ ->
        a1 c;
        fire c rs;
        fire c wd;
        Bytes.set_int64_le c.x.img (16 * d) 0L;
        Bytes.set_int64_le c.x.img ((16 * d) + 8) 0L;
        c.rip <- next;
        Stepped
  | Isa.Pxor (d, s) ->
      let rs = Xmm_read s and wd = Xmm_write d in
      let dlo = 16 * d and slo = 16 * s in
      fun c _ ->
        a1 c;
        fire c rs;
        fire c wd;
        let img = c.x.img in
        let lo =
          Int64.logxor (Bytes.get_int64_le img dlo) (Bytes.get_int64_le img slo)
        in
        Bytes.set_int64_le img dlo lo;
        let hi =
          Int64.logxor
            (Bytes.get_int64_le img (dlo + 8))
            (Bytes.get_int64_le img (slo + 8))
        in
        Bytes.set_int64_le img (dlo + 8) hi;
        c.rip <- next;
        Stepped
  | Isa.Fld1 | Isa.Fldz ->
      let bits = Int64.bits_of_float (if ins = Isa.Fld1 then 1.0 else 0.0) in
      fun c _ ->
        a1 c;
        x87_push c bits;
        c.rip <- next;
        Stepped
  | Isa.Faddp ->
      fun c _ ->
        a1 c;
        let a = Int64.float_of_bits (x87_pop c) in
        let x = c.x in
        if x.st_sp > 0 then begin
          fire c X87_read;
          fire c X87_write;
          let top = 256 + (8 * (x.st_sp - 1)) in
          let v = a +. Int64.float_of_bits (Bytes.get_int64_le x.img top) in
          Bytes.set_int64_le x.img top (Int64.bits_of_float v)
        end;
        c.rip <- next;
        Stepped
  | Isa.Fstp (seg, b, disp) ->
      let ea = ea_of seg b disp in
      fun c mem ->
        a1 c;
        let v = x87_pop c in
        let a = ea c in
        wcheck c mem a;
        store64 mem a v;
        c.rip <- next;
        Stepped

(* ------------------------------------------------------------------ *)
(* Filling entries                                                     *)

(* Raised by the in-page fetch when a decode runs off the page end. *)
exception Page_seam

(* Limit on decode-ahead: one straight-line run's worth of entries.
   Misses re-arm it, so long basic blocks still get covered. *)
let superblock_limit = 64

let is_control_flow = function
  | Isa.Jmp _ | Isa.Jcc _ | Isa.Call _ | Isa.Call_reg _ | Isa.Jmp_reg _
  | Isa.Ret | Isa.Hlt | Isa.Syscall | Isa.Hypercall _ | Isa.Int3 ->
      true
  | _ -> false

(* Decode the instruction at in-page offset [off] of page [pn] from the
   live page bytes [data], never reading past the page end, and store
   its entry.  [Miss] when those bytes cannot be cached
   (seam/invalid). *)
let decode_entry pe pn data off : hit =
  let fetch i =
    let j = off + i in
    if j >= Mem.page_size then raise Page_seam else Char.code (Bytes.get data j)
  in
  match Decode.decode fetch with
  | exception (Page_seam | Decode.Invalid _) -> Miss
  | instr, ilen ->
      let next = (pn lsl Mem.page_shift) + off + ilen in
      let h = Entry { instr; ilen; op = compile_op instr next } in
      pe.entries.(off) <- h;
      h

(* Fill the entry at [off], then decode ahead through the straight-line
   successor run.  Returns the entry for [off] or [Miss]. *)
let fill pe pn data off : hit =
  let rec ahead o n =
    if n > 0 && o < Mem.page_size then
      match pe.entries.(o) with
      | Miss -> (
          match decode_entry pe pn data o with
          | Entry e when not (is_control_flow e.instr) ->
              ahead (o + e.ilen) (n - 1)
          | _ -> ())
      | Entry _ | Block _ -> ()
  in
  match decode_entry pe pn data off with
  | Entry e as h ->
      if not (is_control_flow e.instr) then
        ahead (off + e.ilen) superblock_limit;
      h
  | Miss | Block _ -> Miss

(* ------------------------------------------------------------------ *)
(* The block compiler                                                  *)

(* Block compilation bounds.  [block_limit] is ops per block — large
   enough that zpoline's ~500-nop sled compiles into one block, the
   main throughput lever.  [heat_threshold] executions of an offset
   through the per-instruction path trigger compilation. *)
let block_limit = 768
let heat_threshold = 4

(* Instructions a block must never contain: trap outcomes the kernel
   handles per-instruction, plus [Rdtsc] (reads the live cycle clock,
   which bulk charging would make stale). *)
let block_excluded = function
  | Isa.Syscall | Isa.Hypercall _ | Isa.Hlt | Isa.Int3 | Isa.Rdtsc -> true
  | _ -> false

(* Pure control flow may terminate a block (the op sets [rip] wherever
   the branch goes; the next dispatch re-enters the engine). *)
let block_terminator = function
  | Isa.Jmp _ | Isa.Jcc _ | Isa.Call _ | Isa.Call_reg _ | Isa.Jmp_reg _
  | Isa.Ret ->
      true
  | _ -> false

(* Compile-time upper bound on one instruction's [last_cost] units (a
   nop retires for 0 or 1 depending on the dynamic run length, so its
   bound is 1). *)
let max_units = function
  | Isa.Nop -> 1
  | Isa.Nopw n -> n
  | Isa.Wrpkru _ -> 23
  | _ -> 1

(* Fuse a block's entries into superinstructions: maximal runs of plain
   [nop] become one closure doing the whole [nop_run] arithmetic in
   O(1) (the units a run of [k] nops retires for is the count of
   multiples of 4 in (r, r+k] where [r] is the entry [nop_run]);
   everything else wraps 1:1, returning its [last_cost].  [items]
   carries (entry, next-rip) in order. *)
let fuse (items : (entry * int) list) :
    (Ctx.t -> Mem.t -> int) array * int array =
  let open Ctx in
  let fops = ref [] and flens = ref [] in
  let emit f k =
    fops := f :: !fops;
    flens := k :: !flens
  in
  let rec go = function
    | [] -> ()
    | ({ instr = Isa.Nop; op; _ }, next) :: rest ->
        let rec count k next = function
          | ({ instr = Isa.Nop; _ }, next') :: rest' -> count (k + 1) next' rest'
          | rest' -> (k, next, rest')
        in
        let k, next, rest = count 1 next rest in
        if k = 1 then
          emit
            (fun c mem ->
              ignore (op c mem);
              c.last_cost)
            1
        else
          emit
            (fun c _mem ->
              let r0 = c.nop_run in
              let r1 = r0 + k in
              c.nop_run <- r1;
              c.last_cost <- (if r1 land 3 = 0 then 1 else 0);
              c.rip <- next;
              (r1 lsr 2) - (r0 lsr 2))
            k;
        go rest
    | ({ op; _ }, _) :: rest ->
        emit
          (fun c mem ->
            ignore (op c mem);
            c.last_cost)
          1;
        go rest
  in
  go items;
  (Array.of_list (List.rev !fops), Array.of_list (List.rev !flens))

(* Compile the straight-line run at in-page offset [off] of page [pn]
   from the page's entries (filling any that are missing) and register
   every op's offset in [pe.blocks].  Returns the block hit for [off],
   or [Miss] when the head instruction is excluded. *)
let compile t pe mem pn off : hit =
  match Mem.exec_page_data mem pn with
  | None -> Miss
  | Some data ->
      let base = pn lsl Mem.page_shift in
      (* (offset, entry) of the run, last first *)
      let rec walk o n acc =
        if n = block_limit || o >= Mem.page_size then acc
        else
          let h =
            match pe.entries.(o) with Miss -> fill pe pn data o | h -> h
          in
          match h with
          | Entry e when not (block_excluded e.instr) ->
              let acc = (o, e) :: acc in
              if block_terminator e.instr then acc
              else walk (o + e.ilen) (n + 1) acc
          | _ -> acc
      in
      match walk off 0 [] with
      | [] -> Miss
      | rev ->
          let run = List.rev rev in
          let items = List.map (fun (o, e) -> (e, base + o + e.ilen)) run in
          let writes =
            Array.of_list (List.map (fun (_, e) -> writes_mem e.instr) run)
          in
          let anywrites = Array.exists Fun.id writes in
          let fops, flens = if anywrites then ([||], [||]) else fuse items in
          let blk =
            {
              b_pn = pn;
              b_gen = pe.gen;
              b_ops = Array.of_list (List.map (fun (_, e) -> e.op) run);
              b_writes = writes;
              b_anywrites = anywrites;
              b_maxunits =
                List.fold_left (fun u (_, e) -> u + max_units e.instr) 0 run;
              b_epoch = Mem.code_mut_count mem;
              b_fops = fops;
              b_flen = flens;
            }
          in
          List.iteri (fun i (o, _) -> pe.blocks.(o) <- Block (blk, i)) run;
          pe.nblocks <- pe.nblocks + 1;
          t.bstats.bs_compiled <- t.bstats.bs_compiled + 1;
          incr g_blocks_compiled;
          pe.blocks.(off)

(* ------------------------------------------------------------------ *)
(* Validation and lookup                                               *)

(* Locate (or create) and validate the entry table for page [pn]. *)
let validate t mem pn epoch =
  let pe =
    match Hashtbl.find_opt t.pages pn with
    | Some pe ->
        let g = Mem.page_gen mem pn in
        if pe.gen <> g then begin
          t.stats.invalidations <- t.stats.invalidations + 1;
          incr g_invalidations;
          (match t.on_invalidate with Some f -> f pn | None -> ());
          Array.fill pe.entries 0 Mem.page_size Miss;
          if pe.nblocks > 0 then begin
            (* Block kills: every compiled block on the page dies with
               the generation.  Heat is refilled to the threshold so
               hot code recompiles on its first post-SMC execution
               instead of re-warming from zero. *)
            t.bstats.bs_kills <- t.bstats.bs_kills + pe.nblocks;
            g_block_kills := !g_block_kills + pe.nblocks;
            Array.fill pe.blocks 0 Mem.page_size Miss;
            pe.nblocks <- 0
          end;
          if Array.length pe.heat > 0 then
            Array.fill pe.heat 0 Mem.page_size heat_threshold;
          pe.gen <- g
        end;
        pe
    | None ->
        let pe =
          { gen = Mem.page_gen mem pn;
            entries = Array.make Mem.page_size Miss;
            blocks = [||];
            heat = [||];
            nblocks = 0 }
        in
        Hashtbl.replace t.pages pn pe;
        pe
  in
  t.last_pn <- pn;
  t.last_pe <- pe;
  t.last_epoch <- epoch;
  pe

let count_hit t =
  t.stats.hits <- t.stats.hits + 1;
  incr g_hits

let count_block_hit t =
  t.bstats.bs_hits <- t.bstats.bs_hits + 1;
  incr g_block_hits

let count_uncompilable t =
  t.bstats.bs_fb_uncompilable <- t.bstats.bs_fb_uncompilable + 1;
  incr g_block_fb_uncompilable

(** The CPU front end: what to run at [rip].  [Miss] sends the caller
    down the uncached byte-at-a-time path (page seam, non-executable
    or unmapped page, undecodable bytes — that path reproduces the
    architecturally correct fault in each case).

    With [blocks], the lookup returns a compiled block when one covers
    [rip], and drives heat-based compilation when one does not.  The
    caller passes [blocks] only when no register-access hook is
    installed, so a hooked task steps every instruction. *)
let lookup t mem rip ~blocks : hit =
  let pn = rip lsr Mem.page_shift in
  let epoch = Mem.code_mut_count mem in
  let pe =
    if pn = t.last_pn && epoch = t.last_epoch then t.last_pe
    else validate t mem pn epoch
  in
  let off = rip land Mem.page_mask in
  if blocks && Array.length pe.heat = 0 then begin
    pe.blocks <- Array.make Mem.page_size Miss;
    pe.heat <- Array.make Mem.page_size 0
  end;
  match if blocks then pe.blocks.(off) else Miss with
  | Block _ as b ->
      count_block_hit t;
      b
  | Miss | Entry _ -> (
      match pe.entries.(off) with
      | Entry _ as h when blocks && pe.heat.(off) >= heat_threshold -> (
          match compile t pe mem pn off with
          | Block _ as b ->
              count_block_hit t;
              b
          | Miss | Entry _ ->
              pe.heat.(off) <- min_int;
              count_uncompilable t;
              count_hit t;
              h)
      | Entry _ as h ->
          if blocks then begin
            let heat = pe.heat.(off) in
            pe.heat.(off) <- heat + 1;
            if heat < 0 then count_uncompilable t
            else begin
              t.bstats.bs_fb_cold <- t.bstats.bs_fb_cold + 1;
              incr g_block_fb_cold
            end
          end;
          count_hit t;
          h
      | Miss | Block _ -> (
          let filled =
            match Mem.exec_page_data mem pn with
            | Some data -> fill pe pn data off
            | None -> Miss
          in
          match filled with
          | Entry _ ->
              t.stats.misses <- t.stats.misses + 1;
              incr g_misses;
              filled
          | Miss | Block _ ->
              t.stats.fallbacks <- t.stats.fallbacks + 1;
              incr g_fallbacks;
              Miss))
