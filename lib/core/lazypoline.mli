(** lazypoline: exhaustive, expressive and efficient syscall
    interposition — the paper's contribution.

    The hybrid design: Syscall User Dispatch (selector-only, no
    allowlisted code range) as the exhaustive slow path; on the first
    execution of each syscall site the SIGSYS handler rewrites the
    instruction in place to [call rax] and redirects into the
    zpoline-style fast path, which handles every subsequent
    execution.  See the module implementation and README for the full
    mechanism walk-through. *)

module Hook : module type of Hook
(** The user-facing interposition function (shared with the baseline
    mechanisms). *)

module Layout : module type of Layout
(** Address-space layout: trampoline page, interposer region, per-task
    %gs area, protection-key constants, modelled stub costs. *)

(** Counters exposed for experiments and tests. *)
type stats = {
  mutable rewrites : int;  (** syscall sites rewritten to [call rax] *)
  mutable slow_hits : int;  (** SIGSYS slow-path interceptions *)
  mutable fast_hits : int;  (** fast-path entries *)
  mutable signals_wrapped : int;  (** app handlers wrapped *)
  mutable sigreturns_redirected : int;  (** via the trampoline *)
  mutable xstate_overflows : int;  (** xsave-stack slots exhausted *)
}

(** An installed interposer instance. *)
type t = {
  kernel : Sim_kernel.Types.kernel;
  hook : Hook.t;
  preserve_xstate : bool;
  enable_sud : bool;
  protect_selector : bool;
      (** Section VI hardening: selector behind a protection key *)
  stats : stats;
  mutable entry_addr : int;  (** shared fast/slow-path entry point *)
  mutable trampoline_addr : int;  (** the sigreturn trampoline *)
  mutable restorer_addr : int;
  mutable wrapper_addr : int;
  app_handlers : (int * int, int64 * int64 * int64 * int64) Hashtbl.t;
      (** app-visible sigaction shadow: (tgid, signal) -> action *)
  known_tasks : (int, unit) Hashtbl.t;
      (** tasks the interposer has armed (main + fork/clone children) *)
  clone_rsi : (int, int64) Hashtbl.t;
      (** clone-with-new-stack bookkeeping (internal) *)
}

val install :
  ?preserve_xstate:bool ->
  ?enable_sud:bool ->
  ?protect_selector:bool ->
  Sim_kernel.Types.kernel ->
  Sim_kernel.Types.task ->
  Hook.t ->
  t
(** Install lazypoline into the task's process, as an LD_PRELOADed
    constructor would: maps the VA-0 trampoline and the interposer
    stubs, sets up the per-task %gs area (selector = BLOCK), registers
    the SIGSYS slow-path handler, and enables SUD.

    [preserve_xstate] (default true): save/restore all SSE/x87 state
    around the hook, honouring applications' register-preservation
    expectations (Section IV-B-b).  [enable_sud:false] reproduces the
    paper's Fig. 4 fast-path-only configuration (no slow path; only
    pre-rewritten sites are interposed).  [protect_selector:true]
    enables the Section VI MPK hardening. *)

val rewrite_site : t -> Sim_kernel.Types.task -> addr:int -> unit
(** Pre-rewrite a known syscall site to [call rax], as the paper's
    microbenchmark does to measure pure steady state.  Raises
    [Invalid_argument] if [addr] does not hold a syscall
    instruction. *)

val setup_gs_area : Sim_kernel.Types.task -> int
(** Map a fresh per-task %gs area and point the task's gs base at it;
    returns its address.  Exposed for the baselines and benchmarks
    that manage SUD manually. *)

val clobber_xstate : Sim_kernel.Types.task -> unit
(** Scribble over xmm0-7 and the x87 stack, as interposer C code
    compiled with SSE would — used to reproduce the Listing 1
    compatibility hazard. *)

val xstate_push : t -> Sim_kernel.Types.task -> unit
(** Save the task's xstate on its %gs xsave stack (one blit), as the
    fast-path entry does; at [Layout.gs_xstack_slots] live slots the
    push is dropped and counted in [stats.xstate_overflows]. *)

val xstate_pop : t -> Sim_kernel.Types.task -> unit
(** Restore the xstate saved by the matching {!xstate_push} (one blit;
    the guest-writable x87 depth is clamped to 0..8); no-op on an empty
    stack. *)

val set_selector : Sim_kernel.Types.task -> int -> unit
(** Write the task's SUD selector byte (in its %gs area). *)
