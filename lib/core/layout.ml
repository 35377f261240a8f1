(** Address-space layout shared by lazypoline and the rewriting
    baselines: the zpoline trampoline page at virtual address 0, the
    interposer's code/data region, and the per-task %gs area. *)

open Sim_isa
open Sim_asm

(** {1 The trampoline at virtual address 0}

    A rewritten syscall instruction becomes [call rax]; since the
    calling convention puts the syscall number in [rax], the call
    lands at VA = nr inside a nop sled that slides into a [jmp] to the
    interposer entry.  By construction, this rewrite cannot fail for
    any real syscall instruction. *)

let trampoline_base = 0
let sled_len = 512 (* > highest syscall number *)

(** Assemble the trampoline page; [entry] is the absolute address of
    the interposer's syscall entry point. *)
let trampoline_blob ~entry : Asm.blob =
  Asm.assemble ~base:trampoline_base
    ~env:[ ("syscall_entry", entry) ]
    (List.init sled_len (fun _ -> Asm.nop) @ [ Asm.Jmp_l "syscall_entry" ])

(** {1 Interposer region} *)

let interp_code_base = 0x1000_0000
let interp_data_base = 0x1001_0000 (* scratch page, RW *)

(** The interposers' code windows as [(lo, hi, name)]: zpoline's
    trampoline page and the interposer code region.  Observers (the
    profiler, the span recorder) attribute rips there to the
    mechanism, and the chaos engine treats them as hot. *)
let interposer_windows =
  [
    (trampoline_base, trampoline_base + 4096, "zpoline-trampoline");
    (interp_code_base, interp_code_base + 0x10000, "interposer");
  ]

(* Scratch-page offsets (interposer-private data). *)
let scratch_lock = 0 (* rewrite spinlock word *)
let scratch_sigaction = 64 (* staging area for modified sigactions *)
let scratch_old_sigaction = 128

(** {1 Per-task %gs area}

    One RW page per task, addressed %gs-relative so that threads
    sharing an address space still get private state — the paper's
    Section IV-B-a. *)

let gs_size = 4096

let gs_selector = 0 (* the SUD selector byte *)
let gs_sigstack_depth = 8
let gs_sigstack_base = 16
let gs_sigstack_entry = 16 (* bytes per entry: saved selector, resume rip *)
let gs_sigstack_slots = 30
let gs_xstack_depth = gs_sigstack_base + (gs_sigstack_slots * gs_sigstack_entry)
(* = 496 *)
let gs_xstack_base = gs_xstack_depth + 8
let gs_xstack_frame = Sim_cpu.Cpu.xstate_bytes  (* 328 *)
let gs_xstack_slots = 10  (* 504 + 3280 = 3784 < 4096 *)

(** {1 Selector protection (paper Section VI)}

    The gs area can be tagged with a protection key so that only the
    interposer's stubs — which toggle PKRU around their accesses — can
    write the selector byte.  Application writes then fault instead of
    silently disabling interception. *)

let selector_pkey = 1
let pkru_deny_selector = 1 lsl selector_pkey
let pkru_allow_all = 0

let wrpkru_items v =
  [ Asm.mov_ri Isa.rcx v; Asm.i (Isa.Wrpkru Isa.rcx) ]

(** {1 Modelled stub costs}

    Cycle charges standing in for the register save/restore assembly
    (push/pop of all GPRs around the C hook) that the real tools
    execute; identical for zpoline and lazypoline, which share the
    hook calling convention. *)

let hook_save_cost = 18
let hook_restore_cost = 18

(** Extra bookkeeping lazypoline's entry/exit do beyond zpoline's
    (per-task gs addressing, xstate stack pointer maintenance). *)
let gs_bookkeeping_cost = 5

(** The SIGSYS slow-path handler body (rewriting machinery, context
    fiddling) beyond the priced page operations. *)
let slowpath_body_cost = 60

(** Spinlock acquire/release around the rewrite. *)
let rewrite_lock_cost = 30

(** {1 Selector store snippets}

    Real instructions (not modelled cost): set the %gs-relative
    selector byte.  Clobbers rcx and r11, which the syscall ABI
    already reserves for the kernel. *)

let set_selector_items v =
  [
    Asm.xor_rr Isa.r11 Isa.r11;
    Asm.mov_ri Isa.rcx v;
    Asm.store8 ~seg:Isa.Seg_gs Isa.r11 gs_selector Isa.rcx;
  ]
