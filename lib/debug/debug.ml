(** Time-travel debugging over [% simtrace-audit/1] logs.

    The audit recorder (PR 4) captures, per run, the ordered stream of
    observable events plus periodic state-hash checkpoints.  That is
    the substrate rr builds reverse execution on: because the machine
    is deterministic, "going back" is replaying forward to an earlier
    point.  This module turns a recorded log into an interactive
    debugging session:

    - [seek n] — move the cursor to just after application syscall
      [n] (0 = initial state).  Backward motion re-executes the
      program from scratch with an [Audit.stop_after] barrier (the
      audit checkpoints are {e integrity hashes}, not restorable
      snapshots — the simulated kernels hold closures and cannot be
      cloned, so the "nearest checkpoint" of rr degenerates to the
      checkpoint at 0, with the same asymptotics per replay).
      Forward motion is much cheaper: the halted kernel's barrier is
      moved and the machine {e resumed} in place, which is exact
      because [Kernel.run_slice] is halt-transparent.
    - [step] / [reverse_step] — cursor ±1; reverse = replay +
      re-execute n−1 events, per rr.
    - [continue_to] / [reverse_continue] — run until a watchpoint (a
      register or a memory word) changes value.  Forward is a linear
      resume scan.  Reverse uses binary search over the checkpoint
      grid: O(log n) full replays probe the watched value at
      checkpoint boundaries, then one linear scan inside the located
      segment pins the exact event.  When the watched value changes
      only once this is exact; if it oscillates {e within} a segment
      and returns to the boundary value, the grid search reports a
      change, not necessarily the latest one (rr has the same
      granularity/precision trade with its checkpoint spacing).
    - inspection — the {!Sim_kernel.Strace} decoder for the event
      under the cursor, [/proc/<pid>/*] views through the replay
      kernel's VFS, register dumps and cross-position register/page
      deltas reusing {!Harness.Divergence} machinery.

    Every replayed prefix is verified against the log as it is
    produced — full-row identity when replaying under the recorded
    mechanism, mechanism-neutral app-stream identity when replaying a
    log under a different mechanism (the cross-mechanism trick the
    audit format was designed for).  A resume whose rows stop
    matching falls back to a fresh replay; a fresh replay that
    mismatches is a hard error (wrong program or wrong log). *)

open Sim_kernel
module A = Sim_audit.Audit
module D = Harness.Divergence
module Cpu = Sim_cpu.Cpu
module Mem = Sim_mem.Mem
module Isa = Sim_isa.Isa
module Hook = Lazypoline.Hook

(* ------------------------------------------------------------------ *)
(* Log parsing                                                         *)

type ev_info =
  | Esys of {
      nr : int;
      name : string;
      args : int64 array;
      ret : int64 option;
      status : string;
      path : string;
      cs : int64 array;
      xh : int64;
    }
  | Esig of int
  | Esigret
  | Esched of int

type line_ev = {
  le_seq : int;
  le_tid : int;
  le_scope : char;  (** 'A' or 'M' *)
  le_ev : ev_info;
}

type log = {
  l_header : (string * string) list;
  l_rows : string array;  (** body rows (E and K lines), verbatim *)
  l_events : line_ev array;  (** parsed E rows, in order *)
  l_app : int array;
      (** for app position p (1-based), [l_app.(p-1)] indexes the App
          syscall's row in [l_events] *)
  l_checkpoints : int array;  (** checkpoint app-positions, ascending *)
  l_cadence : int;
  l_final : int64 option;  (** the F row's final state hash *)
}

let header_value log key = List.assoc_opt key log.l_header

let hex64 tok = Int64.of_string ("0x" ^ tok)

let parse_line raw : [ `Ev of line_ev | `Ck of int * string | `Final of int64 ]
    =
  match String.split_on_char ' ' raw with
  | "E" :: seq :: tid :: scope :: rest ->
      let le_seq = int_of_string seq and le_tid = int_of_string tid in
      let le_scope = scope.[0] in
      let ev =
        match rest with
        | [ "R" ] -> Esigret
        | [ "G"; signo ] -> Esig (int_of_string signo)
        | [ "C"; prev ] -> Esched (int_of_string prev)
        | "S" :: nr :: name :: tl ->
            (* a0..a5 ret status path cs0..cs5 xh *)
            let toks = Array.of_list tl in
            if Array.length toks <> 16 then failwith "bad syscall row";
            let args = Array.init 6 (fun i -> hex64 toks.(i)) in
            let ret = if toks.(6) = "-" then None else Some (hex64 toks.(6)) in
            let status = toks.(7) and path = toks.(8) in
            let cs = Array.init 6 (fun i -> hex64 toks.(9 + i)) in
            let xh = hex64 toks.(15) in
            Esys { nr = int_of_string nr; name; args; ret; status; path; cs; xh }
        | _ -> failwith "bad event row"
      in
      `Ev { le_seq; le_tid; le_scope; le_ev = ev }
  | [ "K"; _seq; app_seq; _tid; _hash ] -> `Ck (int_of_string app_seq, raw)
  | [ "F"; hash ] -> `Final (hex64 hash)
  | _ -> failwith "unrecognized row"

let audit_artifact_kind = "audit"
let audit_artifact_version = 1

let parse_log ?file (text : string) : (log, string) result =
  let module Art = Sim_artifact.Artifact in
  match
    Art.parse_magic ?file ~kind:audit_artifact_kind
      ~accept:[ audit_artifact_version ] text
  with
  | Error e -> Error e
  | Ok (_v, after_magic) -> (
      let header = Art.headers after_magic in
      let rest =
        List.filter
          (fun l -> String.trim l <> "" && l.[0] <> '%')
          after_magic
      in
      let rows = ref [] in
      let events = ref [] and app = ref [] and cks = ref [] in
      let final = ref None in
      let nev = ref 0 in
      try
        List.iter
          (fun line ->
            match parse_line line with
            | `Ev e ->
                rows := line :: !rows;
                events := e :: !events;
                (match (e.le_scope, e.le_ev) with
                | 'A', Esys _ -> app := !nev :: !app
                | _ -> ());
                incr nev
            | `Ck (app_seq, raw) ->
                rows := raw :: !rows;
                if app_seq > 0 then cks := app_seq :: !cks
            | `Final h -> final := Some h)
          rest;
        let cadence =
          match List.assoc_opt "checkpoint-every" header with
          | Some v -> (
              match int_of_string_opt v with
              | Some n when n > 0 -> n
              | _ -> failwith "bad checkpoint-every header")
          | None -> 64
        in
        Ok
          {
            l_header = header;
            l_rows = Array.of_list (List.rev !rows);
            l_events = Array.of_list (List.rev !events);
            l_app = Array.of_list (List.rev !app);
            l_checkpoints =
              Array.of_list (List.sort_uniq compare !cks);
            l_cadence = cadence;
            l_final = !final;
          }
      with
      | Failure m -> Error ("malformed audit log: " ^ m)
      | _ -> Error "malformed audit log")

(* ------------------------------------------------------------------ *)
(* Watchpoints                                                         *)

type watch =
  | Wreg of { tid : int; reg : int }
  | Wmem of { tid : int; addr : int }  (** one 64-bit word *)

let watch_name = function
  | Wreg { tid; reg } -> Printf.sprintf "reg %s (tid %d)" (Isa.gpr_name reg) tid
  | Wmem { tid; addr } -> Printf.sprintf "mem 0x%x (tid %d)" addr tid

let reg_of_name name =
  let rec go i =
    if i > 15 then None
    else if Isa.gpr_name i = name then Some i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Session                                                             *)

type live = {
  lk : Types.kernel;
  la : A.t;
  lp : Sim_obs.Provenance.t;  (** the call-site ledger riding along *)
}

type t = {
  log : log;
  mech : D.mech;
  preserve_xstate : bool;
  workload : D.workload;
  blocks : bool option;
  strict : bool;
      (** replaying under the recorded mechanism: verify full-row
          identity (Mech events, checkpoints and all); otherwise only
          the mechanism-neutral app stream *)
  mutable cursor : int;  (** app position: 0 = initial, n = after event n *)
  mutable live : live option;  (** replay kernel at state [cursor] *)
  mutable watch : watch option;
  mutable last_hit : int option;
  mutable replays : int;  (** fresh from-scratch re-executions *)
  mutable resumes : int;  (** in-place forward resumes *)
  mutable spans : Sim_obs.Obs.sidecar_row list;
      (** request spans from the log's [.spans] sidecar, slowest
          first — the p99 exemplars [--seek-request] jumps to *)
}

let n_events s = Array.length s.log.l_app

let create ?mech ?blocks ?preserve_xstate ~workload (log : log) : t =
  let rec_mech =
    match header_value log "mech" with
    | Some m -> D.mech_of_string m
    | None -> None
  in
  let mech =
    match (mech, rec_mech) with
    | Some m, _ -> m
    | None, Some m -> m
    | None, None -> D.Raw
  in
  let preserve_xstate =
    match preserve_xstate with
    | Some b -> b
    | None -> header_value log "preserve-xstate" <> Some "false"
  in
  {
    log;
    mech;
    preserve_xstate;
    workload;
    blocks;
    strict = (match rec_mech with Some m -> m = mech | None -> false);
    cursor = 0;
    live = None;
    watch = None;
    last_hit = None;
    replays = 0;
    resumes = 0;
    spans = [];
  }

(** Reconstruct a [Wrk] workload from a log's
    [% wrk <flavour> <size_kb> <conns> <requests>] header (written by
    [simtrace record] for wrk runs), so a span-recorded macrobench
    replays without the user re-specifying the workload. *)
let wrk_of_header log : D.workload option =
  match header_value log "wrk" with
  | None -> None
  | Some v -> (
      match String.split_on_char ' ' v with
      | [ fl; sz; cn; rq ] -> (
          let flavour =
            match fl with
            | "nginx-sim" -> Some Workloads.Webserver.Nginx_like
            | "lighttpd-sim" -> Some Workloads.Webserver.Lighttpd_like
            | _ -> None
          in
          match
            ( flavour,
              int_of_string_opt sz,
              int_of_string_opt cn,
              int_of_string_opt rq )
          with
          | Some flavour, Some size_kb, Some conns, Some requests ->
              Some (D.Wrk { flavour; size_kb; conns; requests })
          | _ -> None)
      | _ -> None)

(** Load a [% simtrace-spans/1] or [/2] sidecar (the exemplar table
    the span recorder wrote next to the audit log); rows keep their
    slowest-first order. *)
let load_spans s (text : string) = s.spans <- Sim_obs.Obs.parse_sidecar text

(** A fresh replay kernel: same fixture files as [simtrace run] and
    [Divergence.run_audited], audit attached before spawn, interposer
    installed, nothing executed yet (= position 0).  A provenance
    ledger rides along on every replay — observation-only, so the
    verified rows are unchanged — giving the [sites] command the
    call-site table of the replayed prefix at the cursor. *)
let make_live s : live =
  let a = A.create ~checkpoint_every:s.log.l_cadence () in
  let k = Kernel.create ?blocks:s.blocks () in
  Kernel.attach_audit k a;
  let p = Sim_obs.Provenance.create () in
  Kernel.observe k (Observers.ledger p);
  ignore (Vfs.add_file k.Types.vfs "/etc/hosts" "127.0.0.1 localhost\n");
  ignore (Vfs.add_file k.Types.vfs "/tmp/file_a" (String.make 256 'a'));
  let t = D.workload_spawn k s.workload in
  let hook = Hook.dummy () in
  D.install ~preserve_xstate:s.preserve_xstate s.mech k t hook;
  (* Wrk logs: the load generator attaches (and the server boots to
     listening) exactly as at record time, so the replayed event
     stream lines up row for row.  The boot prefix executes here,
     which makes the earliest reachable position for such logs the
     end of that prefix rather than 0. *)
  D.workload_start k s.workload;
  { lk = k; la = a; lp = p }

(** Verify that the events replayed so far are a prefix of the log. *)
let verify s (lv : live) : (unit, string) result =
  if s.strict then begin
    let got =
      D.log_string lv.la |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> "")
    in
    let err = ref None in
    List.iteri
      (fun i row ->
        if !err = None then
          if i >= Array.length s.log.l_rows then
            err := Some (Printf.sprintf "replay row %d past end of log" i)
          else if row <> s.log.l_rows.(i) then
            err :=
              Some
                (Printf.sprintf "replay diverged from log at row %d:\n  log:    %s\n  replay: %s"
                   i s.log.l_rows.(i) row))
      got;
    match !err with None -> Ok () | Some e -> Error e
  end
  else begin
    (* cross-mechanism: compare the mechanism-neutral content of App
       syscalls by app position *)
    let err = ref None in
    List.iter
      (fun (e : A.entry) ->
        if !err = None && e.A.scope = A.App && e.A.app_seq > 0 then
          match e.A.ev with
          | A.Syscall { nr; args; ret; cs; xh; path = _ } ->
              let p = e.A.app_seq in
              if p > n_events s then
                err := Some (Printf.sprintf "replay app event %d past end of log" p)
              else (
                match s.log.l_events.(s.log.l_app.(p - 1)).le_ev with
                | Esys l ->
                    if
                      l.nr <> nr || l.args <> A.words args || l.ret <> ret
                      || l.cs <> A.words cs || l.xh <> xh
                    then
                      err :=
                        Some
                          (Printf.sprintf
                             "replay diverged from log at app event %d (%s vs %s)"
                             p l.name (Defs.syscall_name nr))
                | _ -> err := Some (Printf.sprintf "log app event %d is not a syscall" p))
          | _ -> ())
      (A.entries lv.la);
    match !err with None -> Ok () | Some e -> Error e
  end

(** Resume a (halted or fresh) live kernel forward to app position
    [target].  Exact because [run_slice] is halt-transparent. *)
let advance s (lv : live) target =
  A.set_stop_after lv.la (if target >= n_events s then None else Some target);
  A.clear_halt lv.la;
  lv.lk.Types.halted <- false;
  ignore (Kernel.run_until_exit ~max_slices:40_000_000 lv.lk);
  if A.app_count lv.la <> target then
    failwith
      (Printf.sprintf "replay stopped at app event %d (wanted %d): log/program mismatch?"
         (A.app_count lv.la) target)

let materialize s target : live =
  s.replays <- s.replays + 1;
  let lv = make_live s in
  if target > 0 then advance s lv target;
  (match verify s lv with Ok () -> () | Error e -> failwith e);
  lv

(** Move the cursor.  Forward: resume in place (with prefix
    verification; mismatch falls back to a fresh replay).  Backward or
    no live kernel: fresh bounded replay. *)
let seek s target =
  if target < 0 || target > n_events s then
    failwith
      (Printf.sprintf "seek %d out of range (log has %d app events)" target
         (n_events s));
  (match s.live with
  | Some lv when s.cursor <= target ->
      if s.cursor < target then begin
        s.resumes <- s.resumes + 1;
        match
          advance s lv target;
          verify s lv
        with
        | Ok () -> ()
        | Error _ -> s.live <- Some (materialize s target)
        | exception _ -> s.live <- Some (materialize s target)
      end
  | _ -> s.live <- Some (materialize s target));
  s.cursor <- target

let step s = if s.cursor < n_events s then seek s (s.cursor + 1)
let reverse_step s = if s.cursor > 0 then seek s (s.cursor - 1)

(* ------------------------------------------------------------------ *)
(* Request-flow navigation (spans sidecar)                             *)

(** Seek to where a recorded request's handling begins: the app-event
    index its sidecar row captured at claim time ([ev_lo] — the
    server's first read of that request's bytes).  An ordinary
    {!seek}, so the replayed prefix is verified against the log like
    any other motion. *)
let seek_request s rid : (Sim_obs.Obs.sidecar_row, string) result =
  match List.find_opt (fun r -> r.Sim_obs.Obs.x_rid = rid) s.spans with
  | None ->
      Error
        (Printf.sprintf
           "no request %d in the spans sidecar (%d exemplar row(s) loaded)"
           rid (List.length s.spans))
  | Some r ->
      if r.Sim_obs.Obs.x_ev_lo < 0 then
        Error
          (Printf.sprintf "request %d has no recorded audit event index" rid)
      else begin
        seek s (min r.Sim_obs.Obs.x_ev_lo (n_events s));
        Ok r
      end

let span_row_line (r : Sim_obs.Obs.sidecar_row) =
  Printf.sprintf "  rid %-6d latency %-10Ld cycles  app events [%d..%d]"
    r.Sim_obs.Obs.x_rid r.Sim_obs.Obs.x_latency r.Sim_obs.Obs.x_ev_lo
    r.Sim_obs.Obs.x_ev_hi

let spans_listing s : string =
  if s.spans = [] then "no spans sidecar loaded"
  else
    "exemplar requests (slowest first):\n"
    ^ String.concat "\n" (List.map span_row_line s.spans)

(* ------------------------------------------------------------------ *)
(* Watch evaluation and continue / reverse-continue                    *)

let watch_value s (w : watch) : int64 option =
  match s.live with
  | None -> None
  | Some lv -> (
      let find tid = Hashtbl.find_opt lv.lk.Types.tasks tid in
      match w with
      | Wreg { tid; reg } -> (
          match find tid with
          | Some t -> Some (Cpu.peek_reg t.Types.ctx reg)
          | None -> None)
      | Wmem { tid; addr } -> (
          match find tid with
          | Some t -> (
              try Some (Mem.peek_u64 t.Types.mem addr)
              with Mem.Fault _ -> None)
          | None -> None))

(** Linear forward scan from the cursor; each probe is a one-event
    resume, no fresh replays.  Cursor ends at the hit, or at the end
    of the log on no hit. *)
let ensure_live s = if s.live = None then seek s s.cursor

let continue_to s (w : watch) : int option =
  ensure_live s;
  let v0 = watch_value s w in
  let n = n_events s in
  let rec go p =
    if p > n then None
    else begin
      seek s p;
      if watch_value s w <> v0 then Some p else go (p + 1)
    end
  in
  let hit = go (s.cursor + 1) in
  s.last_hit <- hit;
  hit

(** Scan positions (b, hi] for the latest value change, returning the
    value at [b] and the hit (if any).  One fresh replay (the seek to
    [b]) plus resumes. *)
let scan_segment s w b hi : int64 option * int option =
  seek s b;
  let base = watch_value s w in
  let prev = ref base and hit = ref None in
  for p = b + 1 to hi do
    seek s p;
    let v = watch_value s w in
    if v <> !prev then hit := Some p;
    prev := v
  done;
  (base, !hit)

(** Reverse-continue: find the latest event before the cursor at which
    the watched value changed, by binary search over checkpoint-grid
    prefixes — O(log n) fresh replays plus one intra-segment scan. *)
let reverse_continue s (w : watch) : int option =
  ensure_live s;
  let c0 = s.cursor in
  if c0 = 0 then begin
    s.last_hit <- None;
    None
  end
  else begin
    let bounds =
      Array.to_list s.log.l_checkpoints
      |> List.filter (fun b -> b < c0)
      |> fun l -> List.sort_uniq compare (0 :: l)
    in
    let arr = Array.of_list bounds in
    let b_last = arr.(Array.length arr - 1) in
    let result =
      match scan_segment s w b_last (c0 - 1) with
      | _, Some j -> Some j
      | v_ref, None ->
          if Array.length arr = 1 then None
          else begin
            let vb i =
              seek s arr.(i);
              watch_value s w
            in
            if vb 0 = v_ref then None
            else begin
              (* invariant: value(arr.(lo)) <> v_ref, value(arr.(hi)) = v_ref *)
              let lo = ref 0 and hi = ref (Array.length arr - 1) in
              while !hi - !lo > 1 do
                let mid = (!lo + !hi) / 2 in
                if vb mid = v_ref then hi := mid else lo := mid
              done;
              snd (scan_segment s w arr.(!lo) arr.(!hi))
            end
          end
    in
    (match result with Some j -> seek s j | None -> seek s c0);
    s.last_hit <- result;
    result
  end

(* ------------------------------------------------------------------ *)
(* Call-site navigation (provenance ledger)                            *)

module P = Sim_obs.Provenance

(** The per-call-site ledger of the replayed prefix at the cursor —
    built by the provenance recorder riding on every replay. *)
let sites_listing s : string =
  ensure_live s;
  match s.live with
  | None -> "no live replay; seek first"
  | Some lv ->
      Printf.sprintf "call sites of the replayed prefix (cursor #%d):\n%s"
        s.cursor (P.table lv.lp)

(** Seek to the first audited app syscall issued from call site [pc]:
    one full verified replay builds the whole-log ledger, whose
    recorded first-event index for that site then becomes the target
    of an ordinary verified {!seek} — the same contract as
    {!seek_request}. *)
let seek_site s pc : (string, string) result =
  let full =
    match s.live with
    | Some lv when s.cursor = n_events s -> lv
    | _ -> materialize s (n_events s)
  in
  let p = full.lp in
  match List.filter (fun st -> st.P.s_pc = pc) (P.sites_sorted p) with
  | [] ->
      Error
        (Printf.sprintf
           "no audited syscall from call site 0x%x (%d site(s) in the log; \
            try: sites)"
           pc (P.distinct_sites p))
  | l ->
      let ev =
        List.fold_left (fun acc st -> min acc st.P.s_first_ev) max_int l
      in
      if ev < 1 then
        Error
          (Printf.sprintf "site 0x%x has no recorded audit event index" pc)
      else begin
        (* keep the full replay live: a forward seek from the end
           would be wasted, but the backward seek below replays
           bounded to [ev] and verifies like any other motion *)
        s.live <- Some full;
        s.cursor <- n_events s;
        seek s (min ev (n_events s));
        Ok
          (Printf.sprintf "site 0x%x (%s): %d audited syscall(s), first at #%d"
             pc (P.symbolize p pc)
             (List.fold_left (fun acc st -> acc + P.site_count st) 0 l)
             ev)
      end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let event_at s pos : line_ev option =
  if pos >= 1 && pos <= n_events s then
    Some s.log.l_events.(s.log.l_app.(pos - 1))
  else None

(** The strace-decoded line for the app event at [pos] (path arguments
    are read from the replay kernel's memory at the cursor state). *)
let strace_line s pos : string =
  match event_at s pos with
  | None -> "#0 (initial state; no event)"
  | Some le -> (
      match le.le_ev with
      | Esys { nr; args; ret; _ } ->
          let read_str addr =
            match s.live with
            | Some lv -> (
                match Hashtbl.find_opt lv.lk.Types.tasks le.le_tid with
                | Some t -> Mem.read_cstring t.Types.mem addr
                | None -> raise Not_found)
            | None -> raise Not_found
          in
          Printf.sprintf "#%d tid %d %s%s" pos le.le_tid
            (Strace.format_call ~read_str nr args)
            (Strace.format_ret
               (match ret with Some v -> v | None -> Int64.min_int))
      | Esig signo -> Printf.sprintf "#%d tid %d signal %d" pos le.le_tid signo
      | Esigret -> Printf.sprintf "#%d tid %d sigreturn" pos le.le_tid
      | Esched prev ->
          Printf.sprintf "#%d tid %d sched from %d" pos le.le_tid prev)

let proc_read s path : (string, string) result =
  match s.live with
  | None -> Error "no live replay; seek first"
  | Some lv -> (
      let p =
        if String.length path > 0 && path.[0] = '/' then path
        else "/proc/" ^ path
      in
      match Vfs.read_file lv.lk.Types.vfs p with
      | Ok c -> Ok c
      | Error e -> Error (Printf.sprintf "%s: errno %d" p e))

let regs_dump s tid : (string, string) result =
  match s.live with
  | None -> Error "no live replay; seek first"
  | Some lv -> (
      match Hashtbl.find_opt lv.lk.Types.tasks tid with
      | None -> Error (Printf.sprintf "no task %d" tid)
      | Some t ->
          let c = t.Types.ctx in
          let buf = Buffer.create 512 in
          for r = 0 to 15 do
            Printf.bprintf buf "  %-5s 0x%016Lx\n" (Isa.gpr_name r)
              (Cpu.peek_reg c r)
          done;
          Printf.bprintf buf "  %-5s 0x%x\n" "rip" c.Cpu.rip;
          Ok (Buffer.contents buf))

let mem_dump s tid addr len : (string, string) result =
  match s.live with
  | None -> Error "no live replay; seek first"
  | Some lv -> (
      match Hashtbl.find_opt lv.lk.Types.tasks tid with
      | None -> Error (Printf.sprintf "no task %d" tid)
      | Some t -> (
          try
            let buf = Buffer.create 256 in
            let words = (len + 7) / 8 in
            for i = 0 to words - 1 do
              Printf.bprintf buf "  0x%x: 0x%016Lx\n" (addr + (8 * i))
                (Mem.peek_u64 t.Types.mem (addr + (8 * i)))
            done;
            Ok (Buffer.contents buf)
          with Mem.Fault (a, _) ->
            Error (Printf.sprintf "fault reading 0x%x" a)))

(** Side-by-side register + memory-page delta between the state at
    [other] and the cursor state, via a throwaway bounded replay. *)
let delta s ~tid other : (string, string) result =
  match s.live with
  | None -> Error "no live replay; seek first"
  | Some lv -> (
      if other < 0 || other > n_events s then Error "position out of range"
      else
        let tmp = materialize s other in
        match
          ( Hashtbl.find_opt tmp.lk.Types.tasks tid,
            Hashtbl.find_opt lv.lk.Types.tasks tid )
        with
        | Some tl, Some tr ->
            let buf = Buffer.create 1024 in
            Printf.bprintf buf "tid %d, #%d vs #%d:\n" tid other s.cursor;
            D.dump_regs buf
              (Printf.sprintf "#%d" other)
              (Printf.sprintf "#%d" s.cursor)
              tl.Types.ctx tr.Types.ctx;
            D.dump_page_delta buf tl.Types.mem tr.Types.mem;
            Ok (Buffer.contents buf)
        | _ -> Error (Printf.sprintf "task %d not live at both positions" tid))

(** Full register+memory state hash at the cursor (all live tasks) —
    the bit-identity witness used by the seek/step qcheck property. *)
let state_hash s : int64 option =
  match s.live with
  | None -> None
  | Some lv -> Some (Kernel.audit_final_hash lv.lk lv.la)

let info s : string =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "audit log: %d app events, %d checkpoints (every %d)\n"
    (n_events s)
    (Array.length s.log.l_checkpoints)
    s.log.l_cadence;
  Printf.bprintf buf "mechanism: %s%s  preserve-xstate: %b\n"
    (D.mech_name s.mech)
    (if s.strict then " (as recorded; full-row verification)"
     else " (override; app-stream verification)")
    s.preserve_xstate;
  List.iter
    (fun (k, v) -> Printf.bprintf buf "header: %s = %s\n" k v)
    s.log.l_header;
  (match s.log.l_final with
  | Some h -> Printf.bprintf buf "final state hash: %Lx\n" h
  | None -> ());
  Printf.bprintf buf "cursor: #%d  replays: %d  resumes: %d" s.cursor
    s.replays s.resumes;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Recording helper (tests and benches)                                *)

(** Record [workload] under [mech] and render the full versioned log —
    header, rows, final state hash — exactly as [simtrace record]
    writes it. *)
let record ?(checkpoint_every = 64) mech workload : string =
  let a, k, _ = D.run_audited ~checkpoint_every mech workload in
  let fh = Kernel.audit_final_hash k a in
  let buf = Buffer.create 4096 in
  let module Art = Sim_artifact.Artifact in
  Art.add_magic buf ~kind:audit_artifact_kind ~version:audit_artifact_version;
  Art.add_header buf "mech" (D.mech_name mech);
  Art.add_header buf "checkpoint-every" (string_of_int checkpoint_every);
  Buffer.add_string buf (D.log_string ~final_hash:fh a);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Command engine (shared by the REPL and --script mode)               *)

type cmd_result = { out : string; ok : bool; quit : bool }

let ok_out out = { out; ok = true; quit = false }
let fail_out out = { out; ok = false; quit = false }

let cursor_line s =
  if s.cursor = 0 then
    Printf.sprintf "#0 (initial state, %d events ahead)" (n_events s)
  else strace_line s s.cursor

let parse_watch toks : (watch, string) result =
  let tid, spec =
    match toks with
    | "tid" :: t :: rest -> (int_of_string t, rest)
    | rest -> (1, rest)
  in
  match spec with
  | [ "reg"; name ] -> (
      match reg_of_name name with
      | Some r -> Ok (Wreg { tid; reg = r })
      | None -> Error (Printf.sprintf "unknown register %S" name))
  | [ "mem"; addr ] -> (
      match int_of_string_opt addr with
      | Some a -> Ok (Wmem { tid; addr = a })
      | None -> Error (Printf.sprintf "bad address %S" addr))
  | _ -> Error "watch spec: [tid N] reg <name> | [tid N] mem <addr>"

let help_text =
  {|commands:
  info                      log summary, cursor, replay/resume counters
  seek <n>|end              move to just after app event n (0 = initial state)
  step [n] / rstep [n]      forward / reverse step (default 1)
  watch [tid N] reg <r>     set the watchpoint to a register
  watch [tid N] mem <addr>  set the watchpoint to a 64-bit memory word
  continue | c              run forward until the watched value changes
  rcontinue | rc            run backward (checkpoint bisection) to the change
  requests                  list the spans sidecar's exemplar requests
  request <rid>             seek to where request <rid>'s handling begins
  sites                     per-call-site syscall ledger of the replayed prefix
  site <pc>                 seek to the first audited syscall from call site pc
  strace [n]                decode the app event at n (default: cursor)
  regs [tid]                register dump at the cursor
  mem <addr> [len]          memory words at the cursor
  proc <path>               read /proc/<path> through the replay kernel
  delta <n>                 register/page delta: state at n vs the cursor
  stats                     replay/resume counters
  assert-cursor <n>         fail unless the cursor is at n        (scripts/CI)
  assert-hit [n]            fail unless the last continue hit [at n]
  assert-no-hit             fail unless the last continue found no change
  assert-mem <addr> <val>   fail unless the word at addr equals val
  assert-reg <r> <val>      fail unless register r equals val
  quit | q                  leave the debugger|}

let exec_command s (line : string) : cmd_result =
  let toks =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun t -> t <> "")
  in
  try
    match toks with
    | [] -> ok_out ""
    | [ ("quit" | "q" | "exit") ] -> { out = ""; ok = true; quit = true }
    | [ "help" ] -> ok_out help_text
    | [ "info" ] -> ok_out (info s)
    | [ "stats" ] ->
        ok_out
          (Printf.sprintf "replays: %d  resumes: %d" s.replays s.resumes)
    | [ "seek"; "end" ] ->
        seek s (n_events s);
        ok_out (cursor_line s)
    | [ "seek"; n ] ->
        seek s (int_of_string n);
        ok_out (cursor_line s)
    | "step" :: rest ->
        let n = match rest with [ n ] -> int_of_string n | _ -> 1 in
        for _ = 1 to n do
          step s
        done;
        ok_out (cursor_line s)
    | ("rstep" | "reverse-step") :: rest ->
        let n = match rest with [ n ] -> int_of_string n | _ -> 1 in
        for _ = 1 to n do
          reverse_step s
        done;
        ok_out (cursor_line s)
    | "watch" :: spec -> (
        match parse_watch spec with
        | Ok w ->
            s.watch <- Some w;
            ensure_live s;
            let v =
              match watch_value s w with
              | Some v -> Printf.sprintf "0x%Lx" v
              | None -> "<unmapped>"
            in
            ok_out (Printf.sprintf "watching %s, currently %s" (watch_name w) v)
        | Error e -> fail_out e)
    | [ ("continue" | "c") ] | [ ("rcontinue" | "rc") ] -> (
        match s.watch with
        | None -> fail_out "no watchpoint set (use: watch reg <r> | watch mem <addr>)"
        | Some w -> (
            let reverse =
              match toks with [ ("rcontinue" | "rc") ] -> true | _ -> false
            in
            let hit =
              if reverse then reverse_continue s w else continue_to s w
            in
            match hit with
            | Some _ ->
                let v =
                  match watch_value s w with
                  | Some v -> Printf.sprintf "0x%Lx" v
                  | None -> "<unmapped>"
                in
                ok_out
                  (Printf.sprintf "%s changed to %s at %s" (watch_name w) v
                     (cursor_line s))
            | None ->
                ok_out
                  (Printf.sprintf "%s: no change %s; %s" (watch_name w)
                     (if reverse then "before the cursor" else "ahead")
                     (cursor_line s))))
    | [ "requests" ] -> ok_out (spans_listing s)
    | [ "sites" ] -> ok_out (sites_listing s)
    | [ "site"; pc ] -> (
        match seek_site s (int_of_string pc) with
        | Ok d -> ok_out (Printf.sprintf "%s\n%s" d (cursor_line s))
        | Error e -> fail_out e)
    | [ "request"; rid ] -> (
        match seek_request s (int_of_string rid) with
        | Ok r ->
            ok_out (Printf.sprintf "%s\n%s" (span_row_line r) (cursor_line s))
        | Error e -> fail_out e)
    | "strace" :: rest ->
        let pos =
          match rest with [ n ] -> int_of_string n | _ -> s.cursor
        in
        ok_out (strace_line s pos)
    | "regs" :: rest -> (
        let tid = match rest with [ t ] -> int_of_string t | _ -> 1 in
        match regs_dump s tid with Ok d -> ok_out d | Error e -> fail_out e)
    | "mem" :: addr :: rest -> (
        let len = match rest with [ l ] -> int_of_string l | _ -> 8 in
        match mem_dump s 1 (int_of_string addr) len with
        | Ok d -> ok_out d
        | Error e -> fail_out e)
    | [ "proc"; path ] -> (
        match proc_read s path with Ok d -> ok_out d | Error e -> fail_out e)
    | [ "delta"; n ] -> (
        match delta s ~tid:1 (int_of_string n) with
        | Ok d -> ok_out d
        | Error e -> fail_out e)
    | [ "assert-cursor"; n ] ->
        let n = int_of_string n in
        if s.cursor = n then ok_out (Printf.sprintf "cursor at #%d" n)
        else
          fail_out
            (Printf.sprintf "ASSERT FAILED: cursor at #%d, expected #%d"
               s.cursor n)
    | "assert-hit" :: rest -> (
        match (s.last_hit, rest) with
        | Some j, [] -> ok_out (Printf.sprintf "hit at #%d" j)
        | Some j, [ n ] when int_of_string n = j ->
            ok_out (Printf.sprintf "hit at #%d" j)
        | Some j, n :: _ ->
            fail_out
              (Printf.sprintf "ASSERT FAILED: hit at #%d, expected #%s" j n)
        | None, _ -> fail_out "ASSERT FAILED: no watchpoint hit")
    | [ "assert-no-hit" ] -> (
        match s.last_hit with
        | None -> ok_out "no hit, as expected"
        | Some j ->
            fail_out (Printf.sprintf "ASSERT FAILED: unexpected hit at #%d" j))
    | [ "assert-mem"; addr; v ] -> (
        let addr = int_of_string addr and want = Int64.of_string v in
        match watch_value s (Wmem { tid = 1; addr }) with
        | Some got when got = want ->
            ok_out (Printf.sprintf "mem 0x%x = %Ld" addr want)
        | Some got ->
            fail_out
              (Printf.sprintf "ASSERT FAILED: mem 0x%x = %Ld, expected %Ld"
                 addr got want)
        | None ->
            fail_out (Printf.sprintf "ASSERT FAILED: mem 0x%x unmapped" addr))
    | [ "assert-reg"; name; v ] -> (
        match reg_of_name name with
        | None -> fail_out (Printf.sprintf "unknown register %S" name)
        | Some r -> (
            let want = Int64.of_string v in
            match watch_value s (Wreg { tid = 1; reg = r }) with
            | Some got when got = want ->
                ok_out (Printf.sprintf "%s = %Ld" name want)
            | Some got ->
                fail_out
                  (Printf.sprintf "ASSERT FAILED: %s = %Ld, expected %Ld"
                     name got want)
            | None -> fail_out "ASSERT FAILED: no live task"))
    | _ ->
        fail_out
          (Printf.sprintf "unknown command %S (try: help)" (String.trim line))
  with
  | Failure m -> fail_out m
  | Invalid_argument m -> fail_out m

(** Run a scripted session: one command per line, [#] comments.  Every
    command and its output goes through [print]; the first failing
    command (or failed assertion) stops the script.  Returns 0 on
    success, 1 on failure. *)
let run_script s ~(print : string -> unit) (text : string) : int =
  let lines = String.split_on_char '\n' text in
  let rec go = function
    | [] -> 0
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go rest
        else begin
          print (Printf.sprintf "(tdb) %s\n" trimmed);
          let r = exec_command s trimmed in
          if r.out <> "" then
            print (if String.length r.out > 0 && r.out.[String.length r.out - 1] = '\n' then r.out else r.out ^ "\n");
          if not r.ok then 1 else if r.quit then 0 else go rest
        end
  in
  go lines
