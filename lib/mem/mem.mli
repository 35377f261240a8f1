(** Simulated paged virtual memory.

    An address space is a sparse set of 4 KiB pages, each carrying
    read/write/execute permissions and an MPK-style protection key.
    Page 0 is mappable (the zpoline trampoline requires a mapping at
    virtual address 0).  Threads share one [t]; [fork] deep-copies
    with {!clone}. *)

type access = Read | Write | Exec

val access_to_string : access -> string

exception Fault of int * access
(** Raised on permission violations and unmapped accesses: faulting
    address and the attempted access.  The kernel converts it into a
    SIGSEGV for the faulting task. *)

val page_size : int
val page_shift : int
val page_mask : int

(** {1 Permissions} *)

type perm = int
(** Bitmask of {!p_r}, {!p_w}, {!p_x}. *)

val p_r : int
val p_w : int
val p_x : int
val perm : ?r:bool -> ?w:bool -> ?x:bool -> unit -> perm
val rw : perm
val rx : perm
val rwx : perm
val r_only : perm
val perm_to_string : perm -> string
(** e.g. ["r-x"]. *)

(** {1 Address spaces} *)

type t

val create : unit -> t

val map : t -> addr:int -> len:int -> perm:perm -> unit
(** Map (page-rounded) zero-filled pages, replacing any existing ones
    in the range (MAP_FIXED semantics). *)

val unmap : t -> addr:int -> len:int -> unit

val protect : t -> addr:int -> len:int -> perm:perm -> (unit, [ `Unmapped ]) result
(** mprotect: change permissions; [`Unmapped] if any page is missing. *)

val is_mapped : t -> int -> bool
val perm_at : t -> int -> perm option
val page_align_down : int -> int
val page_align_up : int -> int
val pages_in_range : addr:int -> len:int -> int

val find_free : t -> hint:int -> len:int -> int
(** First free page-aligned range of [len] bytes at or above [hint]
    (for [mmap(NULL, ...)]). *)

(** {1 Protection keys (MPK)} *)

val pkey_at : t -> int -> int
(** Key of the page containing the address; 0 = default, never denied. *)

val set_pkey : t -> addr:int -> len:int -> pkey:int -> (unit, [ `Unmapped ]) result
(** Tag a mapped range with a protection key ([pkey_mprotect]). *)

(** {1 Checked accessors (user-mode semantics)} *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val fetch_u8 : t -> int -> int
(** Instruction fetch: requires X. *)

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val read_bytes : t -> int -> int -> string
val write_bytes : t -> int -> string -> unit
val read_cstring : ?max:int -> t -> int -> string

val page_for_read : t -> int -> Bytes.t
(** Backing bytes of the page holding the address, after the same
    permission check as {!read_u8}; index them with
    [addr land page_mask].  Lets a caller load a word that does not
    cross a page boundary without boxing it. *)

val page_for_write : t -> int -> Bytes.t
(** Like {!page_for_read} for a store: checks W and versions the page
    exactly as {!write_u8} does, so the caller's write is visible to
    decoded-instruction caches. *)

(** {1 Privileged accessors (kernel semantics: ignore permissions)} *)

val poke_bytes : t -> int -> string -> unit
val peek_bytes : t -> int -> int -> string

val poke_from : t -> int -> Bytes.t -> int -> int -> unit
(** [poke_from t addr src off len]: {!poke_bytes} of a [Bytes.t]
    slice, with the same versioning.  Copies page by page upwards; an
    unmapped page raises [Fault] after the part below it is written. *)

val peek_into : t -> int -> Bytes.t -> int -> int -> unit
(** [peek_into t addr dst off len]: {!peek_bytes} into a [Bytes.t]
    slice.  An unmapped page raises [Fault] after the part below it is
    copied. *)

val peek_u8 : t -> int -> int
val poke_u8 : t -> int -> int -> unit
val peek_u64 : t -> int -> int64
val poke_u64 : t -> int -> int64 -> unit

(** {1 Code-mutation tracking (decoded-instruction caches)}

    Every event that can change what executing a page means — a store
    to an executable page, [map]/[unmap] over it, [protect], a pkey
    change — bumps that page's {e generation} (drawn from a monotonic
    per-address-space counter, so remap after unmap can never alias a
    stale value) and the address-space-wide {e code-mutation epoch}.
    A decoded-instruction cache keys entries by page generation and
    revalidates whenever the epoch moves; because all mutators funnel
    through this module, stale decode of self-modified code is
    impossible by construction. *)

val page_gen : t -> int -> int
(** Generation of page number [pn]; [-1] when unmapped. *)

val code_mut_count : t -> int
(** Address-space-wide count of code-mutation events. *)

val exec_page_data : t -> int -> Bytes.t option
(** Backing bytes of page number [pn] if mapped with X, else [None].
    Aliases the live page — valid as a read-only snapshot only while
    {!code_mut_count} is unchanged. *)

val page_data : t -> int -> Bytes.t option
(** Backing bytes of any mapped page (privileged view, used by state
    hashing).  Aliases the live page — a read-only snapshot valid only
    until the page's generation moves. *)

val mapped_pages : t -> int list
(** All mapped page numbers, sorted ascending.  Every store bumps its
    page's generation (executable pages additionally count as code
    mutations), so [page_gen] doubles as a content version for
    incremental whole-address-space hashing. *)

(** {1 Introspection} *)

val clone : t -> t
(** Deep copy, for [fork]. *)

val regions : t -> (int * int * perm) list
(** Mapped regions as (start, length, perm), sorted and coalesced —
    what a static rewriter enumerates. *)

(** {1 Mapping-level trace hook}

    Mapping changes reported to an observer (the machine-wide event
    tracer).  [x] is the new execute bit; [x_gained] flags an mprotect
    that made a previously non-executable page executable — the W^X
    publish step of JIT emission. *)

type trace_event =
  | Tmap of { addr : int; len : int; x : bool }
  | Tunmap of { addr : int; len : int }
  | Tprotect of { addr : int; len : int; x : bool; x_gained : bool }

val set_trace_hook : t -> (trace_event -> unit) option -> unit
(** Install (or clear) the observer for {!map}/{!unmap}/{!protect}.
    Not inherited by {!clone}. *)
