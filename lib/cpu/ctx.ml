(** The register context of one task, split out of {!Cpu} so the
    instruction compiler in {!Icache} can build its ops over it without
    a dependency cycle (Ctx -> Icache -> Cpu).  {!Cpu} re-exports
    everything here via [include], so the rest of the tree keeps
    using [Cpu.t], [Cpu.peek_reg], [Cpu.Stepped], [t.ctx.Cpu.rip] and
    friends unchanged. *)

open Sim_mem

(** {1 Extended state (SSE + x87)} *)

type xstate = {
  xmm_lo : int64 array;  (** low 64 bits of xmm0..xmm15 *)
  xmm_hi : int64 array;  (** high 64 bits *)
  st : int64 array;  (** x87 stack slots (bit patterns) *)
  mutable st_sp : int;  (** number of live x87 stack entries, 0..8 *)
}

let xstate_create () =
  { xmm_lo = Array.make 16 0L; xmm_hi = Array.make 16 0L;
    st = Array.make 8 0L; st_sp = 0 }

let xstate_copy x =
  { xmm_lo = Array.copy x.xmm_lo; xmm_hi = Array.copy x.xmm_hi;
    st = Array.copy x.st; st_sp = x.st_sp }

let xstate_restore ~into src =
  Array.blit src.xmm_lo 0 into.xmm_lo 0 16;
  Array.blit src.xmm_hi 0 into.xmm_hi 0 16;
  Array.blit src.st 0 into.st 0 8;
  into.st_sp <- src.st_sp

(** Serialised size of the extended state (xsave area): 16 xmm x 16
    bytes + 8 x87 slots x 8 bytes + 8 bytes of bookkeeping. *)
let xstate_bytes = (16 * 16) + (8 * 8) + 8

let xstate_write_mem (x : xstate) mem addr =
  for i = 0 to 15 do
    Mem.write_u64 mem (addr + (16 * i)) x.xmm_lo.(i);
    Mem.write_u64 mem (addr + (16 * i) + 8) x.xmm_hi.(i)
  done;
  for i = 0 to 7 do
    Mem.write_u64 mem (addr + 256 + (8 * i)) x.st.(i)
  done;
  Mem.write_u64 mem (addr + 320) (Int64.of_int x.st_sp)

let xstate_to_bytes (x : xstate) : string =
  let b = Bytes.create xstate_bytes in
  for i = 0 to 15 do
    Bytes.set_int64_le b (16 * i) x.xmm_lo.(i);
    Bytes.set_int64_le b ((16 * i) + 8) x.xmm_hi.(i)
  done;
  for i = 0 to 7 do
    Bytes.set_int64_le b (256 + (8 * i)) x.st.(i)
  done;
  Bytes.set_int64_le b 320 (Int64.of_int x.st_sp);
  Bytes.unsafe_to_string b

let xstate_of_bytes (x : xstate) (s : string) =
  let b = Bytes.unsafe_of_string s in
  for i = 0 to 15 do
    x.xmm_lo.(i) <- Bytes.get_int64_le b (16 * i);
    x.xmm_hi.(i) <- Bytes.get_int64_le b ((16 * i) + 8)
  done;
  for i = 0 to 7 do
    x.st.(i) <- Bytes.get_int64_le b (256 + (8 * i))
  done;
  x.st_sp <- Int64.to_int (Bytes.get_int64_le b 320) land 15

let xstate_read_mem (x : xstate) mem addr =
  for i = 0 to 15 do
    x.xmm_lo.(i) <- Mem.read_u64 mem (addr + (16 * i));
    x.xmm_hi.(i) <- Mem.read_u64 mem (addr + (16 * i) + 8)
  done;
  for i = 0 to 7 do
    x.st.(i) <- Mem.read_u64 mem (addr + 256 + (8 * i))
  done;
  x.st_sp <- Int64.to_int (Mem.read_u64 mem (addr + 320)) land 15

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

type t = {
  regs : int64 array;  (** 16 GPRs *)
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
    regs = Array.make 16 0L;
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
    regs = Array.copy c.regs;
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
let peek_reg c r = c.regs.(r)
let poke_reg c r v = c.regs.(r) <- v

(** Total instructions retired across every CPU instance in the
    process — the benchmark harness divides this by wall-clock time to
    report host-side simulation throughput. *)
let retired = ref 0
