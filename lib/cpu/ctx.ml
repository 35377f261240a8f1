(** The register context of one task, split out of {!Cpu} so the
    instruction compiler in {!Icache} can build its ops over it without
    a dependency cycle (Ctx -> Icache -> Cpu).  {!Cpu} re-exports
    everything here via [include], so the rest of the tree keeps
    using [Cpu.t], [Cpu.peek_reg], [Cpu.Stepped], [t.ctx.Cpu.rip] and
    friends unchanged.

    Machine state is stored unboxed: the 16 GPRs and the extended
    state are little-endian byte images read and written with
    [Bytes.get/set_int64_le], so a register access allocates nothing
    where the value stays in an unboxed context (ops, blits), and the
    kernel saves and restores whole images with one blit each (signal
    frames, lazypoline's xsave stack).  Values returned across a
    module boundary are boxed again (dune's dev profile compiles with
    [-opaque], so nothing here is inlined into other modules); callers
    that want an [int] use {!peek_reg_int}/{!poke_reg_int}. *)

open Sim_mem

(** {1 Extended state (SSE + x87)} *)

(** Serialised size of the extended state (xsave area): 16 xmm x 16
    bytes + 8 x87 slots x 8 bytes + 8 bytes of bookkeeping (the x87
    depth). *)
let xstate_bytes = (16 * 16) + (8 * 8) + 8

(* Offset of the x87 depth word in the serialised form. *)
let st_sp_off = 320

type xstate = {
  img : Bytes.t;
      (** the xsave image, [xstate_bytes] long: xmm[i] low half at
          [16i], high half at [16i + 8], x87 slot [i] at [256 + 8i].
          The depth word at [st_sp_off] is brought up to date only
          by {!xstate_image}; [st_sp] is the live depth. *)
  mutable st_sp : int;  (** number of live x87 stack entries, 0..8 *)
}

let xstate_create () = { img = Bytes.make xstate_bytes '\000'; st_sp = 0 }
let xstate_copy x = { img = Bytes.copy x.img; st_sp = x.st_sp }

let xmm_lo x i = Bytes.get_int64_le x.img (16 * i)
let xmm_hi x i = Bytes.get_int64_le x.img ((16 * i) + 8)
let set_xmm_lo x i v = Bytes.set_int64_le x.img (16 * i) v
let set_xmm_hi x i v = Bytes.set_int64_le x.img ((16 * i) + 8) v
let st x i = Bytes.get_int64_le x.img (256 + (8 * i))
let set_st x i v = Bytes.set_int64_le x.img (256 + (8 * i)) v

(** The serialised extended state, with its depth word brought up to
    date.  Aliases the live image: read it before the next x87 op. *)
let xstate_image (x : xstate) =
  Bytes.set_int64_le x.img st_sp_off (Int64.of_int x.st_sp);
  x.img

(** Store the serialised extended state at [addr] with kernel
    privilege: one blit of the image.  Raises [Mem.Fault] on an
    unmapped page, after writing the part below it. *)
let xstate_save (x : xstate) mem addr =
  Mem.poke_from mem addr (xstate_image x) 0 xstate_bytes

(** Load the serialised extended state from [addr] with kernel
    privilege (the inverse of {!xstate_save}).  The depth word comes
    from guest-writable memory (a signal frame, lazypoline's xsave
    stack), so it is clamped to the 0..8 the x87 ops can index. *)
let xstate_load (x : xstate) mem addr =
  Mem.peek_into mem addr x.img 0 xstate_bytes;
  let d = Int64.to_int (Bytes.get_int64_le x.img st_sp_off) in
  x.st_sp <- (if d < 0 then 0 else if d > 8 then 8 else d)

(** {1 Register context} *)

type hook_event =
  | Reg_read of int
  | Reg_write of int
  | Xmm_read of int
  | Xmm_write of int
  | X87_read
  | X87_write

(** What executing one instruction did. *)
type outcome =
  | Stepped
  | Trap_syscall  (** [rip] already points past the syscall instruction *)
  | Trap_hypercall of int
  | Trap_breakpoint
  | Halted
  | Fault of int * Mem.access  (** [rip] still at the faulting instruction *)
  | Fault_arith  (** division by zero *)
  | Bad_instr of int  (** undecodable opcode at [rip] *)

(** Size of the GPR image: 16 registers of 8 bytes, the same layout
    as the GPR block of a signal frame's ucontext. *)
let gpr_bytes = 16 * 8

type t = {
  regs : Bytes.t;  (** 16 GPRs, little-endian, register [r] at [8r] *)
  mutable rip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  x : xstate;
  mutable fs_base : int;
  mutable gs_base : int;
  mutable hook : (hook_event -> unit) option;
  mutable now : unit -> int64;  (** cycle counter source for [rdtsc] *)
  mutable nop_run : int;
      (** consecutive [nop]s retired; models superscalar nop
          throughput (~4/cycle), which is what makes zpoline-style
          nop sleds cheap on real hardware *)
  mutable last_cost : int;  (** cycle cost of the last [step] *)
  mutable pkru : int;
      (** protection-key rights: bit k set = writes to pkey-k pages
          denied.  0 (default) disables all checking. *)
}

let create () =
  {
    regs = Bytes.make gpr_bytes '\000';
    rip = 0;
    zf = false;
    sf = false;
    cf = false;
    x = xstate_create ();
    fs_base = 0;
    gs_base = 0;
    hook = None;
    now = (fun () -> 0L);
    nop_run = 0;
    last_cost = 1;
    pkru = 0;
  }

(** Copy of [t] sharing nothing (for fork/clone and signal frames). *)
let copy (c : t) =
  {
    regs = Bytes.copy c.regs;
    rip = c.rip;
    zf = c.zf;
    sf = c.sf;
    cf = c.cf;
    x = xstate_copy c.x;
    fs_base = c.fs_base;
    gs_base = c.gs_base;
    hook = c.hook;
    now = c.now;
    nop_run = 0;
    last_cost = 1;
    pkru = c.pkru;
  }

(* Untracked accessors for kernel/interposer use: the kernel reading
   syscall arguments is not an application register use and must not
   register in the Pin analysis. *)
let peek_reg c r = Bytes.get_int64_le c.regs (8 * r)
let poke_reg c r v = Bytes.set_int64_le c.regs (8 * r) v
let peek_reg_int c r = Int64.to_int (Bytes.get_int64_le c.regs (8 * r))
let poke_reg_int c r v = Bytes.set_int64_le c.regs (8 * r) (Int64.of_int v)

(** The values of registers [rs], packed as consecutive little-endian
    64-bit words (audit captures). *)
let pack_regs c (rs : int array) =
  let b = Bytes.create (8 * Array.length rs) in
  for i = 0 to Array.length rs - 1 do
    Bytes.set_int64_le b (8 * i) (Bytes.get_int64_le c.regs (8 * rs.(i)))
  done;
  Bytes.unsafe_to_string b

(** Write back registers [rs] from a {!pack_regs} capture. *)
let unpack_regs c (rs : int array) s =
  for i = 0 to Array.length rs - 1 do
    Bytes.set_int64_le c.regs (8 * rs.(i)) (String.get_int64_le s (8 * i))
  done

(** Total instructions retired across every CPU instance in the
    process — the benchmark harness divides this by wall-clock time to
    report host-side simulation throughput. *)
let retired = ref 0
