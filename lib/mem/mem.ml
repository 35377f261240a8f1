(** Simulated paged virtual memory.

    An address space is a sparse set of 4 KiB pages, each carrying
    read/write/execute permissions.  Page 0 is mappable (the zpoline
    trampoline requires a mapping at virtual address 0, i.e. a real
    deployment sets [mmap_min_addr] to 0).

    Threads share one [t]; [fork] deep-copies it.  Permission
    violations raise {!Fault}, which the kernel converts into a
    SIGSEGV for the faulting task. *)

type access = Read | Write | Exec

let access_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Exec -> "exec"

exception Fault of int * access  (** address, attempted access *)

let page_size = 4096
let page_shift = 12
let page_mask = page_size - 1

(* Permission bits. *)
let p_r = 1
let p_w = 2
let p_x = 4

type perm = int

let perm ?(r = false) ?(w = false) ?(x = false) () =
  (if r then p_r else 0) lor (if w then p_w else 0) lor if x then p_x else 0

let rw = p_r lor p_w
let rx = p_r lor p_x
let rwx = p_r lor p_w lor p_x
let r_only = p_r

let perm_to_string p =
  Printf.sprintf "%c%c%c"
    (if p land p_r <> 0 then 'r' else '-')
    (if p land p_w <> 0 then 'w' else '-')
    (if p land p_x <> 0 then 'x' else '-')

type page = {
  data : Bytes.t;
  mutable pperm : perm;
  mutable pkey : int;
  mutable gen : int;
      (** page generation, for decoded-instruction caches: bumped on
          every event that can change what executing this page means —
          stores while the page is executable, map/unmap over it,
          mprotect, pkey changes.  Generations are drawn from a
          per-address-space monotonic counter, so a page number never
          sees the same generation twice (remapping after unmap cannot
          alias a stale cache entry). *)
}

(** Mapping-level changes, reported to an observer (the kernel's
    tracer) when one is installed with {!set_trace_hook}.  [x] is the
    new mapping's execute bit; [x_gained] marks an mprotect that
    turned a previously non-executable page executable — the W^X
    "publish" a JIT performs after emitting code. *)
type trace_event =
  | Tmap of { addr : int; len : int; x : bool }
  | Tunmap of { addr : int; len : int }
  | Tprotect of { addr : int; len : int; x : bool; x_gained : bool }

type t = {
  pages : (int, page) Hashtbl.t;
  mutable next_gen : int;  (** monotonic generation source *)
  mutable code_mut : int;
      (** count of code-mutation events across the whole address
          space; a cheap epoch that lets a cache skip per-page
          generation checks while nothing executable has changed *)
  mutable trace_hook : (trace_event -> unit) option;
      (** observer for mapping-level changes; not copied by {!clone} *)
  mutable last_pn : int;
      (** one-entry translation memo: page number of [last_page], or
          [min_int] when empty.  Page records mutate in place under
          mprotect/pkey changes, so the memo only has to be dropped
          when a mapping is created or destroyed (map/unmap). *)
  mutable last_page : page;
}

(* Memo filler: permissions 0, so any access through it faults — an
   empty memo slot behaves exactly like unmapped memory. *)
let no_page : page =
  { data = Bytes.create 0; pperm = 0; pkey = 0; gen = -1 }

let create () =
  { pages = Hashtbl.create 64; next_gen = 1; code_mut = 0; trace_hook = None;
    last_pn = min_int; last_page = no_page }

let set_trace_hook t hook = t.trace_hook <- hook

(* Call sites guard on [trace_hook <> None] before building the event
   so the untraced path allocates nothing. *)
let fire t ev = match t.trace_hook with Some f -> f ev | None -> ()

let fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- g + 1;
  g

(* Record a code-mutation event on [p].  Every writer of executable
   memory — the CPU's stores, the kernel's poke paths used by the
   lazypoline SIGSYS rewriter, zpoline's load-time sweep, the loader —
   funnels through this one bump; decoded-instruction caches validate
   against [gen] and can never race a mutator. *)
let bump_page t p =
  p.gen <- fresh_gen t;
  t.code_mut <- t.code_mut + 1

(* Mapping-level events (map/unmap/protect/pkey) change fetch
   semantics even without touching bytes; they always count. *)
let bump_epoch t = t.code_mut <- t.code_mut + 1

(** Current generation of page number [pn]; [-1] when unmapped (never
    a valid cached generation, so stale entries cannot match). *)
let page_gen t pn =
  if t.last_pn = pn then t.last_page.gen
  else match Hashtbl.find_opt t.pages pn with Some p -> p.gen | None -> -1

let code_mut_count t = t.code_mut

let is_mapped t addr = Hashtbl.mem t.pages (addr lsr page_shift)

let page_align_down a = a land lnot page_mask
let page_align_up a = (a + page_mask) land lnot page_mask

(** Map [len] bytes at [addr] (both page-aligned up/down as needed)
    with permission [perm], zero-filled.  Existing pages in the range
    are replaced (MAP_FIXED semantics). *)
let map t ~addr ~len ~perm =
  if len <= 0 then invalid_arg "Mem.map: non-positive length";
  let first = page_align_down addr lsr page_shift in
  let last = (page_align_up (addr + len) - 1) lsr page_shift in
  (* Fresh anonymous pages are zeroed. *)
  for pn = first to last do
    Hashtbl.replace t.pages pn
      { data = Bytes.make page_size '\000'; pperm = perm; pkey = 0;
        gen = fresh_gen t }
  done;
  t.last_pn <- min_int;
  t.last_page <- no_page;
  bump_epoch t;
  if t.trace_hook <> None then
    fire t (Tmap { addr; len; x = perm land p_x <> 0 })

let unmap t ~addr ~len =
  let first = page_align_down addr lsr page_shift in
  let last = (page_align_up (addr + len) - 1) lsr page_shift in
  for pn = first to last do
    Hashtbl.remove t.pages pn
  done;
  t.last_pn <- min_int;
  t.last_page <- no_page;
  (* Caches key entries by generation; an unmapped page reads back
     generation -1, and any future map() draws a fresh one — but the
     epoch must still advance so caches revalidate at all. *)
  bump_epoch t;
  if t.trace_hook <> None then fire t (Tunmap { addr; len })

(** Change permissions on a mapped range.  Returns [Error `Unmapped]
    if any page in the range is missing (like mprotect's ENOMEM). *)
let protect t ~addr ~len ~perm =
  let first = page_align_down addr lsr page_shift in
  let last = (page_align_up (addr + len) - 1) lsr page_shift in
  let ok = ref true in
  for pn = first to last do
    if not (Hashtbl.mem t.pages pn) then ok := false
  done;
  if not !ok then Error `Unmapped
  else (
    let x_gained = ref false in
    for pn = first to last do
      let p = Hashtbl.find t.pages pn in
      if p.pperm land p_x = 0 && perm land p_x <> 0 then x_gained := true;
      p.pperm <- perm;
      (* An X page may have been rewritten while W (the lazypoline
         RW/RX flip, JIT emission followed by mprotect): the flip back
         is the moment stale decodes must die. *)
      p.gen <- fresh_gen t
    done;
    bump_epoch t;
    if t.trace_hook <> None then
      fire t
        (Tprotect { addr; len; x = perm land p_x <> 0; x_gained = !x_gained });
    Ok ())

let perm_at t addr =
  match Hashtbl.find_opt t.pages (addr lsr page_shift) with
  | Some p -> Some p.pperm
  | None -> None

(** Protection key of the page containing [addr] (0 = default key,
    never denied). *)
let pkey_at t addr =
  match Hashtbl.find_opt t.pages (addr lsr page_shift) with
  | Some p -> p.pkey
  | None -> 0

(** Tag a mapped range with protection key [pkey] (pkey_mprotect). *)
let set_pkey t ~addr ~len ~pkey =
  let first = page_align_down addr lsr page_shift in
  let last = (page_align_up (addr + len) - 1) lsr page_shift in
  let ok = ref true in
  for pn = first to last do
    if not (Hashtbl.mem t.pages pn) then ok := false
  done;
  if not !ok then Error `Unmapped
  else (
    for pn = first to last do
      let p = Hashtbl.find t.pages pn in
      p.pkey <- pkey;
      p.gen <- fresh_gen t
    done;
    bump_epoch t;
    Ok ())

(** Number of mapped pages overlapping [addr, addr+len). *)
let pages_in_range ~addr ~len =
  let first = page_align_down addr lsr page_shift in
  let last = (page_align_up (addr + len) - 1) lsr page_shift in
  last - first + 1

(** Find a free page-aligned range of [len] bytes at or above [hint].
    Used for [mmap(NULL, ...)]. *)
let find_free t ~hint ~len =
  let npages = pages_in_range ~addr:0 ~len in
  let start = page_align_up hint lsr page_shift in
  let rec scan pn =
    let rec check i =
      if i >= npages then true
      else if Hashtbl.mem t.pages (pn + i) then false
      else check (i + 1)
    in
    if check 0 then pn lsl page_shift else scan (pn + 1)
  in
  scan start

let check_page p addr access need =
  if p.pperm land need = 0 then raise (Fault (addr, access))

(* Stores only invalidate decoded code when the target page is
   executable; writes to plain data pages stay epoch-silent so the
   common case costs one branch. *)
(* Every store versions its page: executable pages additionally count
   as a code mutation (icache revalidation), data pages only advance
   their generation so content observers (e.g. the audit layer's
   per-page hash cache) can skip unchanged pages without perturbing
   the code-mutation epoch. *)
let store_bump t p =
  if p.pperm land p_x <> 0 then bump_page t p else p.gen <- fresh_gen t

(* One-entry-memoized page lookup: the memo turns the common
   same-page-as-last-time access into two compares.  Returns
   [no_page] (permissions 0, so every permission check faults) when
   [pn] is unmapped — the accessors below then raise the same
   [Fault] they always did, just from [check_page].  [no_page] is
   never memoized. *)
let find_page t pn =
  if t.last_pn = pn then t.last_page
  else
    match Hashtbl.find t.pages pn with
    | p ->
        t.last_pn <- pn;
        t.last_page <- p;
        p
    | exception Not_found -> no_page

(* Byte accessors with permission checks. *)

let read_u8 t addr =
  let p = find_page t (addr lsr page_shift) in
  check_page p addr Read p_r;
  Char.code (Bytes.unsafe_get p.data (addr land page_mask))

let write_u8 t addr v =
  let p = find_page t (addr lsr page_shift) in
  check_page p addr Write p_w;
  store_bump t p;
  Bytes.unsafe_set p.data (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

(** Instruction fetch: requires execute permission. *)
let fetch_u8 t addr =
  let p = find_page t (addr lsr page_shift) in
  check_page p addr Exec p_x;
  Char.code (Bytes.unsafe_get p.data (addr land page_mask))

let read_u64 t addr =
  if addr land page_mask <= page_size - 8 then (
    let p = find_page t (addr lsr page_shift) in
    check_page p addr Read p_r;
    Bytes.get_int64_le p.data (addr land page_mask))
  else
    (* Crosses a page boundary: fall back to bytes. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (addr + i)))
    done;
    !v

let write_u64 t addr v =
  if addr land page_mask <= page_size - 8 then (
    let p = find_page t (addr lsr page_shift) in
    check_page p addr Write p_w;
    store_bump t p;
    Bytes.set_int64_le p.data (addr land page_mask) v)
  else
    for i = 0 to 7 do
      write_u8 t (addr + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

(** Backing bytes of the page holding [addr], checked for a user-mode
    read (the caller indexes them with [addr land page_mask]); raises
    [Fault] like {!read_u8}. *)
let page_for_read t addr =
  let p = find_page t (addr lsr page_shift) in
  check_page p addr Read p_r;
  p.data

(** Backing bytes of the page holding [addr], checked for a user-mode
    write and versioned as a store to it; raises [Fault] like
    {!write_u8}. *)
let page_for_write t addr =
  let p = find_page t (addr lsr page_shift) in
  check_page p addr Write p_w;
  store_bump t p;
  p.data

let read_bytes t addr len =
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land page_mask in
    let chunk = min (len - !i) (page_size - off) in
    let p = find_page t (a lsr page_shift) in
    check_page p a Read p_r;
    Bytes.blit p.data off b !i chunk;
    i := !i + chunk
  done;
  Bytes.unsafe_to_string b

let write_bytes t addr (s : string) =
  let len = String.length s in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land page_mask in
    let chunk = min (len - !i) (page_size - off) in
    let p = find_page t (a lsr page_shift) in
    check_page p a Write p_w;
    store_bump t p;
    Bytes.blit_string s !i p.data off chunk;
    i := !i + chunk
  done

(** Privileged store of [len] bytes of [src] from [off] that ignores
    the W permission — used by the loader and by the kernel when
    building signal frames, never by simulated code.  Copies page by
    page in ascending order; an unmapped page raises [Fault] after the
    part below it has been written. *)
let poke_from t addr (src : Bytes.t) off len =
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let o = a land page_mask in
    let chunk = min (len - !i) (page_size - o) in
    let p = find_page t (a lsr page_shift) in
    if p == no_page then raise (Fault (a, Write));
    (* poke ignores W, but not the invalidation protocol: this is the
       path zpoline's sweep and rewrite_site patch code through,
       directly onto RX pages. *)
    store_bump t p;
    Bytes.blit src (off + !i) p.data o chunk;
    i := !i + chunk
  done

let poke_bytes t addr (s : string) =
  poke_from t addr (Bytes.unsafe_of_string s) 0 (String.length s)

(** Privileged read of [len] bytes into [dst] from [off], ignoring
    permissions (kernel / debugger view).  Copies page by page in
    ascending order; an unmapped page raises [Fault] after the part
    below it has been copied. *)
let peek_into t addr (dst : Bytes.t) off len =
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let o = a land page_mask in
    let chunk = min (len - !i) (page_size - o) in
    let p = find_page t (a lsr page_shift) in
    if p == no_page then raise (Fault (a, Read));
    Bytes.blit p.data o dst (off + !i) chunk;
    i := !i + chunk
  done

let peek_bytes t addr len =
  let b = Bytes.create len in
  peek_into t addr b 0 len;
  Bytes.unsafe_to_string b

(** Privileged byte accessors (no permission check; only unmapped
    memory faults). *)
let peek_u8 t addr =
  let p = find_page t (addr lsr page_shift) in
  if p == no_page then raise (Fault (addr, Read));
  Char.code (Bytes.unsafe_get p.data (addr land page_mask))

let poke_u8 t addr v =
  let p = find_page t (addr lsr page_shift) in
  if p == no_page then raise (Fault (addr, Write));
  store_bump t p;
  Bytes.unsafe_set p.data (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let peek_u64 t addr =
  if addr land page_mask <= page_size - 8 then begin
    let p = find_page t (addr lsr page_shift) in
    (* peek ignores permissions, so a PROT_NONE page is readable here —
       only true unmapped memory (the [no_page] sentinel) faults. *)
    if p == no_page then raise (Fault (addr, Read));
    Bytes.get_int64_le p.data (addr land page_mask)
  end
  else begin
    let b = Bytes.create 8 in
    peek_into t addr b 0 8;
    Bytes.get_int64_le b 0
  end

let poke_u64 t addr v =
  if addr land page_mask <= page_size - 8 then begin
    let p = find_page t (addr lsr page_shift) in
    if p == no_page then raise (Fault (addr, Write));
    store_bump t p;
    Bytes.set_int64_le p.data (addr land page_mask) v
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    poke_from t addr b 0 8
  end

(** Read a NUL-terminated string (bounded by [max], default 4096). *)
let read_cstring ?(max = 4096) t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= max then Buffer.contents buf
    else
      let c = read_u8 t (addr + i) in
      if c = 0 then Buffer.contents buf
      else (
        Buffer.add_char buf (Char.chr c);
        go (i + 1))
  in
  go 0

(** Deep copy for [fork]. *)
let clone t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter
    (fun pn p ->
      Hashtbl.replace pages pn
        { data = Bytes.copy p.data; pperm = p.pperm; pkey = p.pkey;
          gen = p.gen })
    t.pages;
  (* Generations carry over (bytes are identical at the fork point),
     but the two address spaces diverge from here on; each must get
     its own decoded-instruction cache — and its own trace hook, if
     anyone wants one (the child's events are not the parent's). *)
  { pages; next_gen = t.next_gen; code_mut = t.code_mut; trace_hook = None;
    last_pn = min_int; last_page = no_page }

(** Live backing bytes of page number [pn] when it is mapped and
    executable, for instruction-cache fills.  The returned [Bytes.t]
    aliases the page: treat it as a read-only snapshot that is valid
    only while {!code_mut_count} is unchanged — any mutation of
    executable memory bumps the epoch (and the page's generation),
    which is exactly the signal to drop both the snapshot and any
    decodes made from it. *)
let exec_page_data t pn =
  match Hashtbl.find_opt t.pages pn with
  | Some p when p.pperm land p_x <> 0 -> Some p.data
  | _ -> None

(** Backing bytes of any mapped page, regardless of permission — the
    privileged view used by state hashing.  Same aliasing caveat as
    {!exec_page_data}: a snapshot valid only until the page's
    generation moves. *)
let page_data t pn =
  match Hashtbl.find_opt t.pages pn with Some p -> Some p.data | None -> None

(** All mapped page numbers, sorted ascending — a deterministic
    iteration order for whole-address-space hashing. *)
let mapped_pages t =
  Hashtbl.fold (fun pn _ acc -> pn :: acc) t.pages [] |> List.sort compare

(** Mapped regions as (first_addr, length_bytes, perm) triples, sorted,
    with adjacent same-permission pages coalesced.  Used by static
    rewriters to enumerate executable code. *)
let regions t =
  let pns =
    Hashtbl.fold (fun pn p acc -> (pn, p.pperm) :: acc) t.pages []
    |> List.sort compare
  in
  let rec coalesce = function
    | [] -> []
    | (pn, pm) :: rest ->
        let rec extend last = function
          | (pn', pm') :: tl when pn' = last + 1 && pm' = pm -> extend pn' tl
          | tl -> (last, tl)
        in
        let last, tl = extend pn rest in
        (pn lsl page_shift, (last - pn + 1) * page_size, pm) :: coalesce tl
  in
  coalesce pns
