(** Deterministic divergence auditor (observability layer 3).

    Records, per task, the ordered stream of {e observable} events —
    dispatched syscalls, signal deliveries, [rt_sigreturn]s and
    scheduling points — together with incremental state-hash
    checkpoints, so that two runs can be compared:

    - {e same mechanism} (record → replay): the full serialized
      stream plus every checkpoint hash must be bit-identical;
    - {e across mechanisms} (raw vs sud/zpoline/lazypoline/seccomp/
      ptrace): only the per-task {e application} streams are compared,
      and only their mechanism-neutral content.  Events that exist
      because of the interposer — SIGSYS deliveries and their
      sigreturns, interposer-issued kernel syscalls, scheduling — are
      classified [Mech] and skipped; legitimate per-mechanism state
      differences (rsp/rip inside stub frames, rcx/r11 sysret
      clobbers, selector/gs pages) are excluded from the comparison
      key, which covers syscall number, arguments, result, the
      callee-saved GPRs and the xstate hash.

    Observation-only contract, like the tracer and metrics layers: an
    attached auditor never charges simulated cycles and never perturbs
    architectural state, so an audited run is cycle- and
    state-identical to an unaudited one.

    State hashes are FNV-1a-64 over registers, flags, segment bases,
    pkru, the full xstate, and a Merkle-style fold of per-page memory
    hashes.  Page hashes are cached keyed by [Mem.page_gen] — every
    store bumps its page's generation, so unchanged pages are never
    rehashed (the same versioning the decoded-instruction cache
    validates against). *)

module Cpu = Sim_cpu.Cpu
module Mem = Sim_mem.Mem
module Event = Sim_trace.Event
module Isa = Sim_isa.Isa

(* ------------------------------------------------------------------ *)
(* FNV-1a 64-bit                                                       *)

let seed = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let mix h x = Int64.mul (Int64.logxor h x) prime
let mix_int h i = mix h (Int64.of_int i)

let hash_bytes_from h0 (b : Bytes.t) =
  let n = Bytes.length b in
  let h = ref h0 in
  let i = ref 0 in
  while !i + 8 <= n do
    h := mix !h (Bytes.get_int64_le b !i);
    i := !i + 8
  done;
  while !i < n do
    h := mix_int !h (Char.code (Bytes.get b !i));
    incr i
  done;
  !h

let hash_bytes b = hash_bytes_from seed b

(* Mix the words of a packed register capture (see {!words}). *)
let mix_words h s = hash_bytes_from h (Bytes.unsafe_of_string s)
let hash_string s = hash_bytes (Bytes.unsafe_of_string s)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

(** [App]: an event the application itself caused and could observe —
    part of its syscall/signal history under {e any} correct
    interposer.  [Mech]: mechanism-private — it exists only because of
    how interposition is implemented (SIGSYS trampolines, rewrite
    syscalls, scheduling) and is excluded from cross-mechanism
    diffs. *)
type scope = App | Mech

type ev =
  | Syscall of {
      nr : int;
      args : string;
          (** the six argument registers at dispatch, packed (see
              {!words}) *)
      ret : int64 option;  (** [None]: control transfer, no result write *)
      path : Event.dispatch_path;
      cs : string;  (** callee-saved rbx rbp r12–r15 after return, packed *)
      xh : int64;  (** xstate hash after return *)
    }
  | Signal of { signo : int }
  | Sigreturn
  | Sched of { prev : int }

type entry = {
  seq : int;  (** global sequence number, 0-based *)
  tid : int;
  scope : scope;
  ev : ev;
  app_seq : int;  (** 1-based count of App syscalls so far; 0 otherwise *)
  key : int64;
      (** mechanism-neutral content hash: what cross-mechanism diffs
          compare.  Excludes [seq], [scope], [path]. *)
  chain : int64;
      (** running hash of {e everything} up to and including this
          entry — replay identity for the same mechanism. *)
}

(** Register captures are packed as consecutive little-endian 64-bit
    words, one string per capture: a capture then retains one block
    instead of an array of boxed values ([Cpu.pack_regs] builds
    one).  [words s] unpacks one. *)
let words s =
  Array.init (String.length s / 8) (fun i -> String.get_int64_le s (8 * i))

type checkpoint = { ck_seq : int; ck_app_seq : int; ck_tid : int; ck_hash : int64 }
type row = Rev of entry | Rck of checkpoint

(* Callee-saved registers per the SysV ABI (minus rsp, which
   legitimately differs inside interposer stub frames). *)
let callee_saved = [| Isa.rbx; Isa.rbp; Isa.r12; Isa.r13; Isa.r14; Isa.r15 |]
let callee_saved_names = [| "rbx"; "rbp"; "r12"; "r13"; "r14"; "r15" |]

type t = {
  mutable rows_rev : row list;
  mutable seq : int;
  mutable chain : int64;
  mutable app_count : int;
  checkpoint_every : int;
  mutable pending_checkpoint : bool;
  frames : (int, scope list ref) Hashtbl.t;
      (** per-tid stack of signal-frame scopes; a sigreturn inherits
          the scope of the delivery that pushed its frame *)
  caches : (int, (int, int * int64) Hashtbl.t) Hashtbl.t;
      (** per-tid page-hash cache: pn -> (generation, hash) *)
  mutable stop_after : int option;
      (** halt the machine once this many App syscalls are recorded —
          used to replay a run "up to" a divergence point.  Mutable so
          the debugger can move the stop barrier forward and resume a
          halted replay instead of re-executing from scratch. *)
  mutable halted : bool;
}

let create ?(checkpoint_every = 64) ?stop_after () =
  if checkpoint_every <= 0 then
    invalid_arg
      (Printf.sprintf "Audit.create: checkpoint_every must be positive (got %d)"
         checkpoint_every);
  {
    rows_rev = [];
    seq = 0;
    chain = seed;
    app_count = 0;
    checkpoint_every;
    pending_checkpoint = false;
    frames = Hashtbl.create 7;
    caches = Hashtbl.create 7;
    stop_after;
    halted = false;
  }

let should_halt a = a.halted
let checkpoint_every a = a.checkpoint_every

(** Move the stop barrier.  [None] removes it; the next recorded App
    syscall at or past a [Some n] barrier halts the machine. *)
let set_stop_after a n = a.stop_after <- n

(** Clear the halt latch so a machine stopped at a [stop_after]
    barrier can run again (after the barrier has been moved). *)
let clear_halt a = a.halted <- false

(** Drop all cached state for [tid] — required on [execve], which
    replaces the task's address space with a fresh one whose page
    generations restart and could alias stale cache entries. *)
let forget_task a tid =
  Hashtbl.remove a.caches tid;
  Hashtbl.remove a.frames tid

(* ------------------------------------------------------------------ *)
(* State hashing                                                       *)

let xstate_hash (c : Cpu.t) = hash_bytes (Cpu.xstate_image c.Cpu.x)

let cache_for a tid =
  match Hashtbl.find_opt a.caches tid with
  | Some c -> c
  | None ->
      let c = Hashtbl.create 64 in
      Hashtbl.replace a.caches tid c;
      c

(** Hash one page's content plus its mapping attributes. *)
let page_hash mem pn =
  let base = pn * Mem.page_size in
  let perm = match Mem.perm_at mem base with Some p -> p | None -> -1 in
  let h = mix_int (mix_int seed perm) (Mem.pkey_at mem base) in
  match Mem.page_data mem pn with
  | Some b -> hash_bytes_from h b
  | None -> h

(** Merkle-style fold over the whole address space; consults the
    per-tid cache so pages whose generation is unchanged since the
    last hash are not re-read. *)
let mem_hash a ~tid mem =
  let cache = cache_for a tid in
  List.fold_left
    (fun h pn ->
      let gen = Mem.page_gen mem pn in
      let ph =
        match Hashtbl.find_opt cache pn with
        | Some (g, hv) when g = gen -> hv
        | _ ->
            let hv = page_hash mem pn in
            Hashtbl.replace cache pn (gen, hv);
            hv
      in
      mix (mix_int h pn) ph)
    seed (Mem.mapped_pages mem)

let flags_bits (c : Cpu.t) =
  (if c.Cpu.zf then 1 else 0)
  lor (if c.Cpu.sf then 2 else 0)
  lor if c.Cpu.cf then 4 else 0

(** Full architectural state hash: 16 GPRs, rip, flags, fs/gs bases,
    pkru, xstate, and the incremental memory hash. *)
let full_state_hash a ~tid (c : Cpu.t) mem =
  let h = ref seed in
  for r = 0 to 15 do
    h := mix !h (Cpu.peek_reg c r)
  done;
  h := mix_int !h c.Cpu.rip;
  h := mix_int !h (flags_bits c);
  h := mix_int !h c.Cpu.fs_base;
  h := mix_int !h c.Cpu.gs_base;
  h := mix_int !h c.Cpu.pkru;
  h := mix !h (xstate_hash c);
  mix !h (mem_hash a ~tid mem)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let scope_bit = function App -> 1 | Mech -> 2

let path_bit = function
  | Event.Sud_sigsys -> 1
  | Event.Fast_path -> 2
  | Event.Seccomp_path -> 3
  | Event.Ptrace_path -> 4
  | Event.Direct -> 5

let ev_key tid ev =
  let h = mix_int seed tid in
  match ev with
  | Syscall { nr; args; ret; cs; xh; path = _ } ->
      let h = mix_int (mix_int h 1) nr in
      let h = mix_words h args in
      let h =
        match ret with None -> mix_int h 0 | Some v -> mix (mix_int h 1) v
      in
      let h = mix_words h cs in
      mix h xh
  | Signal { signo } -> mix_int (mix_int h 2) signo
  | Sigreturn -> mix_int h 3
  | Sched { prev } -> mix_int (mix_int h 4) prev

let push a ~tid ~scope ev =
  let key = ev_key tid ev in
  let chain =
    let h = mix a.chain key in
    let h = mix_int h (scope_bit scope) in
    match ev with
    | Syscall { path; _ } -> mix_int h (path_bit path)
    | _ -> h
  in
  let app_seq =
    match (scope, ev) with
    | App, Syscall _ ->
        a.app_count <- a.app_count + 1;
        if a.app_count mod a.checkpoint_every = 0 then
          a.pending_checkpoint <- true;
        (match a.stop_after with
        | Some n when a.app_count >= n -> a.halted <- true
        | _ -> ());
        a.app_count
    | _ -> 0
  in
  let e = { seq = a.seq; tid; scope; ev; app_seq; key; chain } in
  a.rows_rev <- Rev e :: a.rows_rev;
  a.seq <- a.seq + 1;
  a.chain <- chain

let capture_cs (c : Cpu.t) = Cpu.pack_regs c callee_saved

let record_syscall a ~tid ~scope ~nr ~args ~ret ~path (c : Cpu.t) =
  push a ~tid ~scope
    (Syscall { nr; args; ret; path; cs = capture_cs c; xh = xstate_hash c })

(** [mech] classifies the delivery: SIGSYS raised by SUD or a seccomp
    TRAP filter is interposition plumbing, anything else is an
    application-visible signal.  The scope is remembered on a per-tid
    frame stack so the matching sigreturn inherits it. *)
let record_signal a ~tid ~signo ~mech =
  let scope = if mech then Mech else App in
  let st =
    match Hashtbl.find_opt a.frames tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace a.frames tid r;
        r
  in
  st := scope :: !st;
  push a ~tid ~scope (Signal { signo })

let record_sigreturn a ~tid =
  let scope =
    match Hashtbl.find_opt a.frames tid with
    | Some ({ contents = s :: rest } as r) ->
        r := rest;
        s
    | _ -> App
  in
  push a ~tid ~scope Sigreturn

let record_sched a ~tid ~prev = push a ~tid ~scope:Mech (Sched { prev })

let checkpoint_due a = a.pending_checkpoint

let take_checkpoint a ~tid (c : Cpu.t) mem =
  a.pending_checkpoint <- false;
  let h = full_state_hash a ~tid c mem in
  a.rows_rev <-
    Rck { ck_seq = a.seq; ck_app_seq = a.app_count; ck_tid = tid; ck_hash = h }
    :: a.rows_rev

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let rows a = List.rev a.rows_rev

let entries a =
  List.filter_map (function Rev e -> Some e | Rck _ -> None) (rows a)

let checkpoints a =
  List.filter_map (function Rck c -> Some c | Rev _ -> None) (rows a)

let app_count a = a.app_count
let chain a = a.chain

let tids a =
  let seen = Hashtbl.create 7 in
  List.iter (fun e -> Hashtbl.replace seen e.tid ()) (entries a);
  Hashtbl.fold (fun tid () acc -> tid :: acc) seen [] |> List.sort compare

(** The per-task application stream: App-scope syscalls, signals and
    sigreturns, in order — what must be identical across mechanisms. *)
let app_stream_of_tid a tid =
  entries a
  |> List.filter (fun e -> e.tid = tid && e.scope = App)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let scope_char = function App -> 'A' | Mech -> 'M'

let add_entry buf ~syscall_name ~errno_name (e : entry) =
  let open Printf in
  bprintf buf "E %d %d %c " e.seq e.tid (scope_char e.scope);
  (match e.ev with
  | Syscall { nr; args; ret; path; cs; xh } ->
      bprintf buf "S %d %s" nr (syscall_name nr);
      Array.iter (fun v -> bprintf buf " %Lx" v) (words args);
      (match ret with
      | None -> bprintf buf " - -"
      | Some v ->
          let status =
            if v < 0L && v >= -4095L then errno_name (Int64.to_int (Int64.neg v))
            else "ok"
          in
          bprintf buf " %Lx %s" v status);
      bprintf buf " %s" (Event.path_name path);
      Array.iter (fun v -> bprintf buf " %Lx" v) (words cs);
      bprintf buf " %Lx" xh
  | Signal { signo } -> bprintf buf "G %d" signo
  | Sigreturn -> bprintf buf "R"
  | Sched { prev } -> bprintf buf "C %d" prev);
  Buffer.add_char buf '\n'

let to_buffer ?final_hash ~syscall_name ~errno_name a buf =
  List.iter
    (function
      | Rev e -> add_entry buf ~syscall_name ~errno_name e
      | Rck c ->
          Printf.bprintf buf "K %d %d %d %Lx\n" c.ck_seq c.ck_app_seq c.ck_tid
            c.ck_hash)
    (rows a);
  (match final_hash with
  | Some h -> Printf.bprintf buf "F %Lx\n" h
  | None -> ())

let to_string ?final_hash ~syscall_name ~errno_name a =
  let buf = Buffer.create 4096 in
  to_buffer ?final_hash ~syscall_name ~errno_name a buf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Cross-run diffing                                                   *)

type divergence = {
  d_tid : int;
  d_index : int;  (** 0-based index into the per-tid app stream *)
  d_left : entry option;  (** [None]: the left stream ended here *)
  d_right : entry option;
  d_reason : string;
}

let describe_ev ~syscall_name = function
  | Syscall { nr; ret; _ } ->
      Printf.sprintf "%s(#%d)%s" (syscall_name nr) nr
        (match ret with None -> "" | Some v -> Printf.sprintf " = %Ld" v)
  | Signal { signo } -> Printf.sprintf "signal %d" signo
  | Sigreturn -> "sigreturn"
  | Sched { prev } -> Printf.sprintf "sched from %d" prev

(** Explain the first differing field of two same-index entries, in
    mechanism-neutral terms. *)
let explain_pair l r =
  match (l.ev, r.ev) with
  | Syscall a, Syscall b ->
      if a.nr <> b.nr then
        Printf.sprintf "syscall nr differs: %d vs %d" a.nr b.nr
      else begin
        let reason = ref None in
        let put s = if !reason = None then reason := Some s in
        let bargs = words b.args in
        Array.iteri
          (fun i v ->
            if v <> bargs.(i) then
              put (Printf.sprintf "arg%d differs: %Ld vs %Ld" i v bargs.(i)))
          (words a.args);
        (match (a.ret, b.ret) with
        | Some x, Some y when x <> y ->
            put (Printf.sprintf "result differs: %Ld vs %Ld" x y)
        | None, Some y -> put (Printf.sprintf "result differs: - vs %Ld" y)
        | Some x, None -> put (Printf.sprintf "result differs: %Ld vs -" x)
        | _ -> ());
        let bcs = words b.cs in
        Array.iteri
          (fun i v ->
            if v <> bcs.(i) then
              put
                (Printf.sprintf "callee-saved %s differs: %Ld vs %Ld"
                   callee_saved_names.(i) v bcs.(i)))
          (words a.cs);
        if a.xh <> b.xh then put "xstate differs";
        match !reason with Some s -> s | None -> "entries differ"
      end
  | Signal a, Signal b when a.signo <> b.signo ->
      Printf.sprintf "signal differs: %d vs %d" a.signo b.signo
  | _ ->
      Printf.sprintf "event kind differs: %s vs %s"
        (describe_ev ~syscall_name:(fun n -> Printf.sprintf "sys_%d" n) l.ev)
        (describe_ev ~syscall_name:(fun n -> Printf.sprintf "sys_%d" n) r.ev)

(** First divergent index between two per-tid app streams, found by
    binary search over prefix-chain hashes (O(log n) hash compares
    instead of a linear field-by-field walk). *)
let first_divergent_index (la : entry array) (lb : entry array) =
  let n = min (Array.length la) (Array.length lb) in
  (* prefix.(i) = hash of keys [0, i) *)
  let prefix arr =
    let p = Array.make (n + 1) seed in
    for i = 0 to n - 1 do
      p.(i + 1) <- mix p.(i) arr.(i).key
    done;
    p
  in
  let pa = prefix la and pb = prefix lb in
  if pa.(n) = pb.(n) then
    if Array.length la = Array.length lb then None else Some n
  else begin
    (* largest m with equal prefixes; divergence at index m *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if pa.(mid) = pb.(mid) then lo := mid else hi := mid
    done;
    Some !lo
  end

let first_divergence (a : t) (b : t) : divergence option =
  let union_tids =
    List.sort_uniq compare (tids a @ tids b)
  in
  let best = ref None in
  List.iter
    (fun tid ->
      let la = app_stream_of_tid a tid and lb = app_stream_of_tid b tid in
      match first_divergent_index la lb with
      | None -> ()
      | Some i ->
          let get arr j = if j < Array.length arr then Some arr.(j) else None in
          let l = get la i and r = get lb i in
          let reason =
            match (l, r) with
            | Some l, Some r -> explain_pair l r
            | None, Some _ -> "left stream ended early"
            | Some _, None -> "right stream ended early"
            | None, None -> "streams diverge"
          in
          let d = { d_tid = tid; d_index = i; d_left = l; d_right = r;
                    d_reason = reason }
          in
          (* keep the divergence earliest in global order *)
          let sk = function
            | Some (e : entry) -> e.seq
            | None -> max_int
          in
          let rank d = min (sk d.d_left) (sk d.d_right) in
          (match !best with
          | Some prev when rank prev <= rank d -> ()
          | _ -> best := Some d))
    union_tids;
  !best
