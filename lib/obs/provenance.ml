(** Syscall provenance: guest stack unwinding and a per-call-site
    interposition ledger.

    Lazypoline's central claim is *per-site* lazy specialization: the
    SIGSYS handler rewrites individual [syscall] instructions, so
    whether a dispatch takes the fast path is a property of the call
    site, not of the process.  Every other observability layer
    (tracer, metrics, spans) attributes cost per CPU, per request or
    per syscall number — this one attributes it per {e site}.

    It subscribes to the kernel-event stream like every other
    observer ([Sim_kernel.Observers.ledger]), under the same
    contract: attaching one never charges simulated cycles and never
    mutates task, memory or CPU state.  A provenanced run is
    bit-identical — cycles, registers, memory, audit hash — to a bare
    one (the qcheck gate in test_observers).

    At every audited application syscall the kernel hands us:

    - the {b site PC} of the [syscall] (or rewritten [call rax])
      instruction that issued it.  For direct dispatches that is
      [rip - 2]; for interposed dispatches the stub's return slot
      still holds the application return address, so the site is
      recovered exactly the way the interposer entry itself does;
    - a bounded {b guest backtrace}, walked over the rbp frame chain
      minicc codegen emits ([push rbp; mov rbp, rsp] prologues).  The
      walker never faults: every load goes through {!Mem.peek_u64}
      under a handler, depth is capped, and the chain must be
      8-aligned and strictly increasing to continue;
    - the dispatch path, the kernel-cycle cost of the dispatch and
      the app-stream audit index it was recorded at.

    The ledger keys on (site PC, syscall nr) and keeps the
    dispatch-path mix, first/last-seen cycle, the first audit index
    (so the time-travel debugger can seek to a site), a
    {!Sim_stats.Stats.Log_hist} of per-dispatch kernel cycles, and
    the merged unwind stacks for collapsed-flamegraph output.
    Rewrite events (lazypoline's lazy SIGSYS rewrite, explicit
    [rewrite_site], zpoline's load-time sweep) stamp a separate
    per-PC table, which is how the paper's Table II story becomes
    checkable per site: a lazypoline site's mix must be one SIGSYS
    hit followed by fast-path-only dispatches once its rewrite is
    stamped. *)

module Stats = Sim_stats.Stats
module Ev = Sim_trace.Event
module Json = Sim_artifact.Json
open Sim_mem

let path_names = [| "sud_sigsys"; "fast_path"; "seccomp"; "ptrace"; "direct" |]

(** How a site's [syscall] byte pair got replaced with [call rax]. *)
type rewrite_kind =
  | Rw_lazy  (** lazypoline's SIGSYS slow path, on first execution *)
  | Rw_sweep  (** zpoline's load-time linear sweep *)
  | Rw_manual  (** explicit [Lazypoline.rewrite_site] (benchmarks) *)

let rewrite_kind_name = function
  | Rw_lazy -> "lazy"
  | Rw_sweep -> "sweep"
  | Rw_manual -> "manual"

type rewrite = {
  rw_pc : int;
  mutable rw_kind : rewrite_kind;
  mutable rw_count : int;  (** times this PC was (re)stamped *)
  mutable rw_first : int64;  (** cycle time of the first stamp *)
}

(** One (site PC, syscall nr) ledger entry. *)
type site = {
  s_pc : int;
  s_nr : int;
  s_paths : int array;  (** dispatch count per {!Ev.path_index} *)
  mutable s_first_seen : int64;
  mutable s_last_seen : int64;
  mutable s_first_ev : int;
      (** app-stream audit index of the first dispatch recorded from
          this site, or -1 without an auditor *)
  s_kcycles : Stats.Log_hist.t;  (** kernel cycles per dispatch *)
  s_stacks : (int list, int ref) Hashtbl.t;
      (** unwound caller chains (innermost first) -> dispatch count *)
  mutable s_stacks_dropped : int;  (** chains beyond the per-site cap *)
}

let site_count (s : site) = Array.fold_left ( + ) 0 s.s_paths
let site_cycles (s : site) = Stats.Log_hist.sum s.s_kcycles

type t = {
  sites : (int * int, site) Hashtbl.t;
  rewrites : (int, rewrite) Hashtbl.t;
  mutable syms : (int * string) array;  (** sorted by address *)
  max_depth : int;
  max_sites : int;
  mutable sites_dropped : int;  (** dispatches beyond the site cap *)
  max_stacks : int;
  sub : int;  (** Log_hist resolution for per-site cycle hists *)
  (* unwinder health, exported as sim_site_* probes *)
  mutable attempts : int;
  mutable resolved : int;  (** unwinds that recovered >= 1 frame *)
  mutable frames_total : int;
  mutable truncated : int;  (** walks stopped by the depth cap *)
}

let create ?(max_depth = 16) ?(max_sites = 4096) ?(max_stacks = 64)
    ?(sub = 16) () =
  {
    sites = Hashtbl.create 64;
    rewrites = Hashtbl.create 64;
    syms = [||];
    max_depth = max 1 max_depth;
    max_sites = max 1 max_sites;
    sites_dropped = 0;
    max_stacks = max 1 max_stacks;
    sub;
    attempts = 0;
    resolved = 0;
    frames_total = 0;
    truncated = 0;
  }

(** {1 Symbolization}

    Same scheme as the sampling profiler: a sorted (address, name)
    array, binary search for the last symbol at or below the PC, and
    a 4 KiB window so data addresses don't get claimed by the
    preceding function. *)

let add_symbols t (syms : (string * int) list) =
  (* Dot-prefixed labels are assembler-local (branch targets, syscall
     site markers like [.sc3]) — they would shadow the enclosing
     function symbol, so the symbolizer ignores them. *)
  let syms = List.filter (fun (n, _) -> String.length n = 0 || n.[0] <> '.') syms in
  let a =
    Array.of_list (List.map (fun (n, addr) -> (addr, n)) syms @ Array.to_list t.syms)
  in
  Array.sort compare a;
  t.syms <- a

let symbolize t pc =
  let a = t.syms in
  let n = Array.length a in
  if n = 0 then Printf.sprintf "0x%x" pc
  else begin
    let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if fst a.(mid) <= pc then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best < 0 then Printf.sprintf "0x%x" pc
    else
      let addr, name = a.(!best) in
      let off = pc - addr in
      if off >= 4096 then Printf.sprintf "0x%x" pc
      else if off = 0 then name
      else Printf.sprintf "%s+0x%x" name off
  end

(** {1 The unwinder}

    Walk the rbp frame chain: at a standard [push rbp; mov rbp, rsp]
    frame, [\[rbp\]] is the caller's saved rbp and [\[rbp+8\]] the
    return address.  Returns the recovered return addresses innermost
    first.  Never faults and always terminates: loads go through
    {!Mem.peek_u64} under a handler, frame pointers must be 8-aligned
    and strictly increasing, and depth is capped. *)
let unwind t mem ~rbp : int list =
  let acc = ref [] and depth = ref 0 and fp = ref rbp and stop = ref false in
  while not !stop do
    if !depth >= t.max_depth then begin
      t.truncated <- t.truncated + 1;
      stop := true
    end
    else if !fp <= 0 || !fp land 7 <> 0 then stop := true
    else
      match
        (Mem.peek_u64 mem (!fp + 8), Mem.peek_u64 mem !fp)
      with
      | ret, next ->
          let ret = Int64.to_int ret and next = Int64.to_int next in
          if ret <= 0 then stop := true
          else begin
            acc := ret :: !acc;
            incr depth;
            if next > !fp then fp := next else stop := true
          end
      | exception Mem.Fault _ -> stop := true
  done;
  List.rev !acc

(** {1 Recording} *)

let find_site t ~pc ~nr =
  match Hashtbl.find_opt t.sites (pc, nr) with
  | Some s -> Some s
  | None ->
      if Hashtbl.length t.sites >= t.max_sites then begin
        t.sites_dropped <- t.sites_dropped + 1;
        None
      end
      else begin
        let s =
          {
            s_pc = pc;
            s_nr = nr;
            s_paths = Array.make (List.length Ev.all_paths) 0;
            s_first_seen = -1L;
            s_last_seen = -1L;
            s_first_ev = -1;
            s_kcycles = Stats.Log_hist.create ~sub:t.sub ();
            s_stacks = Hashtbl.create 4;
            s_stacks_dropped = 0;
          }
        in
        Hashtbl.replace t.sites (pc, nr) s;
        Some s
      end

(** Record one audited application dispatch: [site] issued syscall
    [nr] via [path], costing [cycles] of kernel time, finishing at
    cycle [now]; [ev] is the app-stream audit index the dispatch was
    recorded at (-1 without an auditor).  [mem]/[rbp] feed the
    unwinder. *)
let record t ~mem ~site ~nr ~path ~rbp ~cycles ~now ~ev =
  let frames = unwind t mem ~rbp in
  t.attempts <- t.attempts + 1;
  if frames <> [] then t.resolved <- t.resolved + 1;
  t.frames_total <- t.frames_total + List.length frames;
  match find_site t ~pc:site ~nr with
  | None -> ()
  | Some s ->
      let pi = Ev.path_index path in
      s.s_paths.(pi) <- s.s_paths.(pi) + 1;
      if s.s_first_seen < 0L then s.s_first_seen <- now;
      s.s_last_seen <- now;
      if s.s_first_ev < 0 && ev >= 0 then s.s_first_ev <- ev;
      Stats.Log_hist.add s.s_kcycles (Int64.to_float cycles);
      (match Hashtbl.find_opt s.s_stacks frames with
      | Some r -> incr r
      | None ->
          if Hashtbl.length s.s_stacks >= t.max_stacks then
            s.s_stacks_dropped <- s.s_stacks_dropped + 1
          else Hashtbl.replace s.s_stacks frames (ref 1))

(** Stamp a binary rewrite of [site] ([syscall] -> [call rax]) on the
    ledger.  Later stamps of the same PC keep the first kind and
    time; the count tells re-stamps (e.g. a sweep finding an
    already-rewritten image) apart. *)
let note_rewrite t ~site ~kind ~now =
  match Hashtbl.find_opt t.rewrites site with
  | Some r -> r.rw_count <- r.rw_count + 1
  | None ->
      Hashtbl.replace t.rewrites site
        { rw_pc = site; rw_kind = kind; rw_count = 1; rw_first = now }

let rewrite_of t pc = Hashtbl.find_opt t.rewrites pc

(** {1 Reading the ledger} *)

(** All (site, nr) entries, most kernel cycles first (count, then PC
    break ties, so the order is deterministic). *)
let sites_sorted t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sites []
  |> List.sort (fun a b ->
         match compare (site_cycles b) (site_cycles a) with
         | 0 -> (
             match compare (site_count b) (site_count a) with
             | 0 -> compare (a.s_pc, a.s_nr) (b.s_pc, b.s_nr)
             | c -> c)
         | c -> c)

let distinct_sites t = Hashtbl.length t.sites
let rewrite_count t = Hashtbl.length t.rewrites
let unwind_attempts t = t.attempts
let unwind_resolved t = t.resolved
let unwind_truncated t = t.truncated
let sites_dropped t = t.sites_dropped

let unwind_success_rate t =
  if t.attempts = 0 then 1.0
  else float_of_int t.resolved /. float_of_int t.attempts

(** {1 Reports} *)

(** Human-readable table, hottest site first. *)
let table ?(limit = 24) t : string =
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "call-site ledger: %d sites, %d rewrites, unwind %d/%d (%.1f%%)\n"
    (distinct_sites t) (rewrite_count t) t.resolved t.attempts
    (100.0 *. unwind_success_rate t);
  if t.sites_dropped > 0 then
    out "  %d dispatches DROPPED (site-table cap)\n" t.sites_dropped;
  out "  %-26s %4s %9s %12s %8s %8s  %-10s %s\n" "site" "nr" "count"
    "kcycles" "p50" "p99" "rewrite" "path mix";
  List.iteri
    (fun i s ->
      if i < limit then begin
        let mix =
          Array.to_list s.s_paths
          |> List.mapi (fun pi c ->
                 if c = 0 then "" else Printf.sprintf "%s=%d" path_names.(pi) c)
          |> List.filter (fun x -> x <> "")
          |> String.concat " "
        in
        let rw =
          match rewrite_of t s.s_pc with
          | Some r -> rewrite_kind_name r.rw_kind
          | None -> "-"
        in
        out "  %-26s %4d %9d %12.0f %8.0f %8.0f  %-10s %s\n"
          (Printf.sprintf "%s (0x%x)" (symbolize t s.s_pc) s.s_pc)
          s.s_nr (site_count s) (site_cycles s)
          (Stats.Log_hist.percentile s.s_kcycles 50.0)
          (Stats.Log_hist.percentile s.s_kcycles 99.0)
          rw mix
      end)
    (sites_sorted t);
  Buffer.contents b

(** One [site] line per call site for /proc/<pid>/interposer:
    rewritten status (and by what), dispatch count and path mix. *)
let proc_lines t =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      let rw =
        match rewrite_of t s.s_pc with
        | Some r -> rewrite_kind_name r.rw_kind
        | None -> "-"
      in
      let mix =
        Array.to_list s.s_paths
        |> List.mapi (fun pi n ->
               if n = 0 then "" else Printf.sprintf "%s=%d" path_names.(pi) n)
        |> List.filter (fun x -> x <> "")
        |> String.concat ","
      in
      Printf.bprintf b "site:\t0x%x\tnr=%d\trewritten=%s\tcount=%d\t%s\n"
        s.s_pc s.s_nr rw (site_count s) mix)
    (sites_sorted t);
  Buffer.contents b

(** Collapsed flamegraph (Brendan Gregg format), one line per
    distinct stack: [comm;outermost;...;caller;site_sym count] — the
    same frame separator and terminal-count shape as the PR-3
    profiler's folded output, keyed by call site, weighted by
    dispatch count.  Unwound return addresses are symbolized like the
    leaf; a failed unwind still emits the site as a one-frame
    stack. *)
let folded ?(comm = "sites") t : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      let leaf = symbolize t s.s_pc in
      let lines =
        Hashtbl.fold
          (fun frames count acc ->
            let callers =
              List.rev_map (fun ra -> symbolize t ra) frames
              (* frames are innermost first: reversed = outermost first *)
            in
            let stack = String.concat ";" (comm :: (callers @ [ leaf ])) in
            (stack, !count) :: acc)
          s.s_stacks []
        |> List.sort compare
      in
      List.iter
        (fun (stack, count) ->
          Buffer.add_string b (Printf.sprintf "%s %d\n" stack count))
        lines)
    (sites_sorted t);
  Buffer.contents b

(** JSON export of the full ledger (sites hottest-first, rewrite
    table, unwinder health). *)
let json t : Json.t =
  let int n = Json.Int n and i64 n = Json.Int (Int64.to_int n) in
  let rewrite r =
    [
      ("kind", Json.String (rewrite_kind_name r.rw_kind));
      ("count", int r.rw_count); ("at", i64 r.rw_first);
    ]
  in
  let sym pc = Json.String (symbolize t pc) in
  let site s =
    Json.Object
      [
        ("pc", int s.s_pc); ("sym", sym s.s_pc);
        ("nr", int s.s_nr); ("count", int (site_count s));
        ("kcycles", Json.Float (0, site_cycles s));
        ("p50", Json.Float (1, Stats.Log_hist.percentile s.s_kcycles 50.0));
        ("p99", Json.Float (1, Stats.Log_hist.percentile s.s_kcycles 99.0));
        ("first_seen", i64 s.s_first_seen); ("last_seen", i64 s.s_last_seen);
        ("first_ev", int s.s_first_ev);
        ( "rewrite",
          match rewrite_of t s.s_pc with
          | Some r -> Json.Object (rewrite r)
          | None -> Json.Null );
        ( "paths",
          Json.Object
            (Array.to_list
               (Array.mapi (fun pi c -> (path_names.(pi), int c)) s.s_paths)) );
      ]
  in
  let rws =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.rewrites []
    |> List.sort (fun a b -> compare a.rw_pc b.rw_pc)
  in
  Json.Object
    [
      ( "unwind",
        Json.Object
          [
            ("attempts", int t.attempts); ("resolved", int t.resolved);
            ("success_rate", Json.Float (4, unwind_success_rate t));
            ("frames", int t.frames_total); ("truncated", int t.truncated);
          ] );
      ("sites_dropped", int t.sites_dropped);
      ("sites", Json.List (List.map site (sites_sorted t)));
      ( "rewrites",
        Json.List
          (List.map
             (fun r ->
               Json.Object
                 (("pc", int r.rw_pc) :: ("sym", sym r.rw_pc) :: rewrite r))
             rws) );
    ]

let to_json t : string = Json.to_string (json t) ^ "\n"
