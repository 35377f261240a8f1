(** Request-flow observability: per-request causal spans and
    tail-latency attribution.

    It subscribes to the kernel-event stream like every other
    observer ([Sim_kernel.Observers.spans]), under the same contract:
    attaching one never charges simulated cycles and never mutates
    task, memory or CPU state.  A spanned run is bit-identical —
    cycles, registers, memory, audit hash — to an unspanned one (the
    qcheck gate in test_observers).

    What it records, fed from four kinds of event:

    - {b every} [charge] call, classified into a causal phase: app
      compute, interposer trampoline/selector work, kernel service
      (per syscall nr), or scheduler overhead.  Classification uses
      state the kernel already maintains ([in_kernel], the
      [trace_path] dispatch tag, the guest rip against registered
      interposer code ranges) plus the kernel's staged syscall nr;
    - request causality: the load generator stamps a request id at
      issue time keyed by the server-side connection endpoint, the
      kernel claims it when a task first reads that connection, and
      the generator completes it when the response is fully received.
      Between claim and completion every cycle charged to the serving
      task — and every off-CPU gap, split into blocked vs
      runnable-but-unscheduled — is attributed to the request;
    - scheduling: task-on/task-off edges, so off-CPU time is
      attributed even though blocked CPUs advance their clocks
      without [charge] (the idle jump in [run_slice]);
    - application syscalls: the kernel cycles of each, per recovered
      call site, inside the window of the request being served.

    Memory is bounded everywhere: the in-flight table has a hard cap
    (overflowing requests are dropped and counted — the CI gate fails
    on a nonzero count), per-request phase segments are capped, the
    completed-request log is a sliding window, and the slow-request
    exemplars live in a top-k reservoir whose evictions are counted.
    Aggregate latency goes into a {!Sim_stats.Stats.Log_hist} so a
    100k-request run costs O(buckets), not O(requests). *)

module Stats = Sim_stats.Stats

(** Causal phase of a charged cycle (or of an off-CPU gap). *)
type phase =
  | Papp  (** guest application compute *)
  | Pinterp  (** interposer trampoline / selector / rewriter code *)
  | Pkernel of int
      (** simulated-kernel service; the payload is the syscall nr
          being dispatched, or [-1] for kernel work outside any
          dispatch (signal delivery, scheduler bookkeeping at
          [in_kernel > 0]) *)
  | Pblocked  (** off CPU, waiting on I/O / futex / sleep *)
  | Psched  (** runnable but unscheduled, or context-switch cost *)

let phase_name = function
  | Papp -> "app"
  | Pinterp -> "interposer"
  | Pkernel _ -> "kernel"
  | Pblocked -> "blocked"
  | Psched -> "sched"

(** One contiguous run of cycles in a single phase on a request's
    critical path — the Perfetto slice unit. *)
type seg = { s_phase : phase; s_start : int64; mutable s_end : int64 }

(** Per-request record: identity, the audit event-index window that
    explains it, per-phase cycle totals, and the (bounded) phase
    segments. *)
type req = {
  rid : int;
  conn : int;  (** server-side endpoint id carrying the request *)
  issue_ts : int64;  (** generator fired the request *)
  mutable claim_ts : int64;  (** kernel first read it; -1 until claimed *)
  mutable complete_ts : int64;  (** response fully received; -1 in flight *)
  mutable ev_lo : int;
      (** app-stream audit index of the first syscall serving this
          request (the claiming read), or -1 without an auditor *)
  mutable ev_hi : int;  (** app-stream audit index at completion *)
  mutable tid : int;  (** serving task, -1 until claimed *)
  mutable c_app : int64;
  mutable c_interp : int64;
  mutable c_kernel : int64;
  k_by_nr : (int, int64 ref) Hashtbl.t;  (** kernel cycles per syscall nr *)
  mutable c_blocked : int64;
  mutable c_sched : int64;
  mutable segs : seg list;  (** newest first *)
  mutable nsegs : int;
  mutable segs_truncated : bool;
  mutable off_at : int64;  (** went off CPU at this time; -1 while on *)
  mutable off_blocked : bool;  (** the off-CPU reason was a block *)
  site_cyc : (int, int64 ref) Hashtbl.t;
      (** kernel cycles per syscall call-site PC inside this request's
          window (bounded) *)
  mutable site_dropped : bool;  (** distinct-site cap hit *)
}

let latency r =
  if r.complete_ts < 0L then -1L else Int64.sub r.complete_ts r.issue_ts

(** Segments oldest-first, for export. *)
let segments r = List.rev r.segs

(** Per-phase totals of one request as [(name, cycles)] rows in
    canonical order (kernel aggregated across nrs). *)
let req_phases r =
  [
    ("app", r.c_app);
    ("interposer", r.c_interp);
    ("kernel", r.c_kernel);
    ("blocked", r.c_blocked);
    ("sched", r.c_sched);
  ]

type t = {
  ncpus : int;
  active : req option array;  (** per-CPU resolved request slot *)
  (* machine-wide phase accumulators over every charged cycle *)
  mutable m_app : int64;
  mutable m_interp : int64;
  mutable m_kernel : int64;
  m_kernel_by_nr : (int, int64 ref) Hashtbl.t;
  mutable m_sched : int64;
  mutable baseline : int64 array;  (** per-CPU clocks at attach *)
  mutable ranges : (int * int) list;  (** interposer code [lo, hi) *)
  conn_pending : (int, int) Hashtbl.t;  (** conn id -> issued rid *)
  by_tid : (int, req) Hashtbl.t;  (** serving task -> its current request *)
  inflight : (int, req) Hashtbl.t;  (** rid -> record *)
  max_inflight : int;
  mutable overflow : int;  (** issues dropped: in-flight table full *)
  topk : int;
  mutable reservoir : req list;  (** slowest completed, latency ascending *)
  mutable evictions : int;  (** exemplars pushed out of the reservoir *)
  max_completed : int;
  mutable completed : req list;  (** newest first, sliding window *)
  mutable ncompleted_kept : int;
  mutable completed_dropped : int;
  mutable n_issued : int;
  mutable n_completed : int;
  lat : Stats.Log_hist.t;  (** request latency, cycles *)
  max_segs : int;
}

let create ?(topk = 16) ?(max_inflight = 4096) ?(max_completed = 1024)
    ?(max_segs = 512) ?(sub = 32) ~ncpus () =
  if ncpus <= 0 then invalid_arg "Obs.create: non-positive ncpus";
  {
    ncpus;
    active = Array.make ncpus None;
    m_app = 0L;
    m_interp = 0L;
    m_kernel = 0L;
    m_kernel_by_nr = Hashtbl.create 64;
    m_sched = 0L;
    baseline = Array.make ncpus 0L;
    ranges = [];
    conn_pending = Hashtbl.create 64;
    by_tid = Hashtbl.create 16;
    inflight = Hashtbl.create 256;
    max_inflight = max 1 max_inflight;
    overflow = 0;
    topk = max 1 topk;
    reservoir = [];
    evictions = 0;
    max_completed = max 0 max_completed;
    completed = [];
    ncompleted_kept = 0;
    completed_dropped = 0;
    n_issued = 0;
    n_completed = 0;
    lat = Stats.Log_hist.create ~sub ();
    max_segs = max 8 max_segs;
  }

(** Snapshot the per-CPU clocks the accounting starts from; total
    machine time in {!totals} is measured against it. *)
let set_baseline t clks =
  Array.blit clks 0 t.baseline 0 (min (Array.length clks) t.ncpus)

(** Register an interposer code range [\[lo, hi)]; guest cycles at a
    rip inside any registered range classify as {!Pinterp} even
    before a dispatch-path tag is staged. *)
let add_range t ~lo ~hi = t.ranges <- (lo, hi) :: t.ranges

let in_interp t rip =
  List.exists (fun (lo, hi) -> rip >= lo && rip < hi) t.ranges

let bump tbl nr c =
  match Hashtbl.find_opt tbl nr with
  | Some r -> r := Int64.add !r c
  | None -> Hashtbl.replace tbl nr (ref c)

(* Append [start, stop) in [phase] to the request's segment list,
   coalescing contiguous same-phase runs.  Cross-CPU migration can
   hand us a start before the previous segment's end (per-CPU clocks
   are not globally ordered); the displayed segment is clamped to
   keep the track monotone — the cycle accumulators stay exact. *)
let seg_append t r ~phase ~start ~stop =
  let start =
    match r.segs with s :: _ when s.s_end > start -> s.s_end | _ -> start
  in
  let stop = if stop < start then start else stop in
  if stop > start then
    match r.segs with
    | s :: _ when s.s_phase = phase && s.s_end = start -> s.s_end <- stop
    | _ ->
        if r.nsegs >= t.max_segs then r.segs_truncated <- true
        else begin
          r.segs <- { s_phase = phase; s_start = start; s_end = stop } :: r.segs;
          r.nsegs <- r.nsegs + 1
        end

let req_charge r ~phase ~cycles =
  (match phase with
  | Papp -> r.c_app <- Int64.add r.c_app cycles
  | Pinterp -> r.c_interp <- Int64.add r.c_interp cycles
  | Pkernel nr ->
      r.c_kernel <- Int64.add r.c_kernel cycles;
      bump r.k_by_nr nr cycles
  | Pblocked -> r.c_blocked <- Int64.add r.c_blocked cycles
  | Psched -> r.c_sched <- Int64.add r.c_sched cycles);
  ()

(** The per-charge hook: [cycles] were just charged on [cpu] over
    simulated time [\[start, start+cycles)], classified as [phase].
    Feeds both the machine-wide accumulators and, when the CPU is
    serving a claimed request, that request's critical path. *)
let on_charge t ~cpu ~start ~cycles ~phase =
  if cycles > 0 then begin
    let c = Int64.of_int cycles in
    (match phase with
    | Papp -> t.m_app <- Int64.add t.m_app c
    | Pinterp -> t.m_interp <- Int64.add t.m_interp c
    | Pkernel nr ->
        t.m_kernel <- Int64.add t.m_kernel c;
        bump t.m_kernel_by_nr nr c
    | Psched | Pblocked -> t.m_sched <- Int64.add t.m_sched c);
    match if cpu >= 0 && cpu < t.ncpus then t.active.(cpu) else None with
    | None -> ()
    | Some r ->
        req_charge r ~phase ~cycles:c;
        seg_append t r ~phase ~start ~stop:(Int64.add start c)
  end

(* Per-request distinct call sites are bounded: a server loop touches
   a handful, and the cap keeps a hostile workload from growing an
   exemplar without bound. *)
let max_req_sites = 64

(** An application syscall from call-site PC [site] cost [cycles] of
    kernel time on [cpu]: attribute it to the request being served
    there, so exemplars can name the hottest call site of their
    window. *)
let note_site t ~cpu ~site ~cycles =
  match if cpu >= 0 && cpu < t.ncpus then t.active.(cpu) else None with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.site_cyc site with
      | Some c -> c := Int64.add !c cycles
      | None ->
          if Hashtbl.length r.site_cyc >= max_req_sites then
            r.site_dropped <- true
          else Hashtbl.replace r.site_cyc site (ref cycles))

(** The call site that cost the most kernel cycles inside [r]'s
    window, as [(pc, cycles)]; ties break to the lower PC so the
    answer is deterministic.  [None] when no application syscall
    fell inside the window. *)
let hot_site r =
  Hashtbl.fold
    (fun pc c best ->
      match best with
      | Some (bpc, bc) when Int64.compare !c bc < 0 -> Some (bpc, bc)
      | Some (bpc, bc) when !c = bc && bpc < pc -> Some (bpc, bc)
      | _ -> Some (pc, !c))
    r.site_cyc None

(** {1 Request lifecycle} *)

(** The load generator fired request [rid] on the connection whose
    server-side endpoint id is [conn] at time [ts]. *)
let note_issue t ~rid ~conn ~ts =
  t.n_issued <- t.n_issued + 1;
  if Hashtbl.length t.inflight >= t.max_inflight then
    t.overflow <- t.overflow + 1
  else begin
    let r =
      {
        rid;
        conn;
        issue_ts = ts;
        claim_ts = -1L;
        complete_ts = -1L;
        ev_lo = -1;
        ev_hi = -1;
        tid = -1;
        c_app = 0L;
        c_interp = 0L;
        c_kernel = 0L;
        k_by_nr = Hashtbl.create 8;
        c_blocked = 0L;
        c_sched = 0L;
        segs = [];
        nsegs = 0;
        segs_truncated = false;
        off_at = -1L;
        off_blocked = false;
        site_cyc = Hashtbl.create 8;
        site_dropped = false;
      }
    in
    Hashtbl.replace t.inflight rid r;
    Hashtbl.replace t.conn_pending conn rid
  end

(** The kernel observed task [tid] (running on [cpu]) read fresh data
    from connection [conn]: the pending request on that connection —
    if any — is now being served.  [ev] is the app-stream audit index
    the claiming syscall will be logged at (-1 without an auditor).
    The issue-to-claim gap is queue wait: runnable work nobody had
    picked up yet, charged to {!Psched}. *)
let claim t ~cpu ~conn ~tid ~ts ~ev =
  match Hashtbl.find_opt t.conn_pending conn with
  | None -> ()
  | Some rid -> (
      Hashtbl.remove t.conn_pending conn;
      match Hashtbl.find_opt t.inflight rid with
      | None -> ()
      | Some r ->
          r.claim_ts <- ts;
          r.ev_lo <- ev;
          r.tid <- tid;
          r.off_at <- -1L;
          if ts > r.issue_ts then begin
            req_charge r ~phase:Psched ~cycles:(Int64.sub ts r.issue_ts);
            seg_append t r ~phase:Psched ~start:r.issue_ts ~stop:ts
          end;
          Hashtbl.replace t.by_tid tid r;
          if cpu >= 0 && cpu < t.ncpus then t.active.(cpu) <- Some r)

(** Scheduler edge: [tid] starts running on [cpu] at [ts].  If it is
    serving a request and was off CPU, the gap is attributed as
    blocked or scheduler wait depending on how it went off. *)
let task_on t ~cpu ~tid ~ts =
  match Hashtbl.find_opt t.by_tid tid with
  | None -> ()
  | Some r ->
      if r.off_at >= 0L && ts > r.off_at then begin
        let phase = if r.off_blocked then Pblocked else Psched in
        req_charge r ~phase ~cycles:(Int64.sub ts r.off_at);
        seg_append t r ~phase ~start:r.off_at ~stop:ts
      end;
      r.off_at <- -1L;
      if cpu >= 0 && cpu < t.ncpus then t.active.(cpu) <- Some r

(** Scheduler edge: [tid] leaves [cpu] at [ts]; [blocked] tells
    whether it went off waiting (vs preempted while runnable). *)
let task_off t ~cpu ~tid ~ts ~blocked =
  (match Hashtbl.find_opt t.by_tid tid with
  | None -> ()
  | Some r ->
      r.off_at <- ts;
      r.off_blocked <- blocked);
  if cpu >= 0 && cpu < t.ncpus then t.active.(cpu) <- None

(* Insert a completed request into the top-k reservoir (latency
   ascending); the fastest exemplar is evicted when full. *)
let reservoir_insert t r =
  let l = latency r in
  let rec ins = function
    | [] -> [ r ]
    | x :: rest as all -> if latency x >= l then r :: all else x :: ins rest
  in
  if List.length t.reservoir < t.topk then t.reservoir <- ins t.reservoir
  else
    match t.reservoir with
    | fastest :: rest when latency fastest < l ->
        t.evictions <- t.evictions + 1;
        t.reservoir <- ins rest
    | _ -> ()

(** The generator gave up on [rid] (connection died mid-request):
    forget it without polluting the latency books. *)
let abandon t ~rid =
  match Hashtbl.find_opt t.inflight rid with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.inflight rid;
      Hashtbl.remove t.conn_pending r.conn;
      (match Hashtbl.find_opt t.by_tid r.tid with
      | Some cur when cur == r -> Hashtbl.remove t.by_tid r.tid
      | _ -> ());
      for cpu = 0 to t.ncpus - 1 do
        match t.active.(cpu) with
        | Some a when a == r -> t.active.(cpu) <- None
        | _ -> ()
      done

(** The generator received the last byte of the response for [rid] at
    [ts]; [ev_hi] is the current app-stream audit index (every
    syscall that served the request is at an index <= it). *)
let complete t ~rid ~ts ~ev_hi =
  match Hashtbl.find_opt t.inflight rid with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.inflight rid;
      if r.off_at >= 0L && ts > r.off_at then begin
        let phase = if r.off_blocked then Pblocked else Psched in
        req_charge r ~phase ~cycles:(Int64.sub ts r.off_at);
        seg_append t r ~phase ~start:r.off_at ~stop:ts;
        r.off_at <- -1L
      end;
      r.complete_ts <- ts;
      r.ev_hi <- ev_hi;
      t.n_completed <- t.n_completed + 1;
      Stats.Log_hist.add t.lat (Int64.to_float (latency r));
      (match Hashtbl.find_opt t.by_tid r.tid with
      | Some cur when cur == r ->
          Hashtbl.remove t.by_tid r.tid;
          for cpu = 0 to t.ncpus - 1 do
            match t.active.(cpu) with
            | Some a when a == r -> t.active.(cpu) <- None
            | _ -> ()
          done
      | _ -> ());
      reservoir_insert t r;
      if t.max_completed > 0 then begin
        t.completed <- r :: t.completed;
        if t.ncompleted_kept >= t.max_completed then begin
          t.completed <-
            List.filteri (fun i _ -> i < t.max_completed) t.completed;
          t.completed_dropped <- t.completed_dropped + 1
        end
        else t.ncompleted_kept <- t.ncompleted_kept + 1
      end

(** {1 Reading the results} *)

type totals = {
  t_app : int64;
  t_interp : int64;
  t_kernel : int64;
  t_kernel_by_nr : (int * int64) list;  (** cycles per nr, busiest first *)
  t_sched : int64;
  t_blocked : int64;  (** derived: un-charged clock advance (idle CPUs) *)
  t_other : int64;  (** accounting slack; 0 unless the books disagree *)
  t_total : int64;  (** total per-CPU clock advance since attach *)
}

(** Machine-wide attribution against the CPUs' current clocks.  Every
    charged cycle lands in app/interposer/kernel/sched; the only
    other way a simulated clock advances is the idle jump for a CPU
    with nothing runnable, so total minus charged is the blocked/idle
    bucket — and [t_other] is exactly the residue of that identity. *)
let totals t ~clks =
  let total = ref 0L in
  Array.iteri
    (fun i c ->
      if i < t.ncpus then total := Int64.add !total (Int64.sub c t.baseline.(i)))
    clks;
  let charged =
    Int64.add (Int64.add t.m_app t.m_interp) (Int64.add t.m_kernel t.m_sched)
  in
  let blocked = Int64.sub !total charged in
  let blocked = if blocked < 0L then 0L else blocked in
  let by_nr =
    Hashtbl.fold (fun nr c acc -> (nr, !c) :: acc) t.m_kernel_by_nr []
    |> List.sort (fun (_, a) (_, b) -> Int64.compare b a)
  in
  {
    t_app = t.m_app;
    t_interp = t.m_interp;
    t_kernel = t.m_kernel;
    t_kernel_by_nr = by_nr;
    t_sched = t.m_sched;
    t_blocked = blocked;
    t_other = Int64.sub !total (Int64.add charged blocked);
    t_total = !total;
  }

let totals_rows tt =
  [
    ("app", tt.t_app);
    ("interposer", tt.t_interp);
    ("kernel", tt.t_kernel);
    ("sched", tt.t_sched);
    ("blocked", tt.t_blocked);
    ("other", tt.t_other);
  ]

(** Completed requests still retained, completion order. *)
let completed t = List.rev t.completed

(** Top-k slowest completed requests, slowest first. *)
let exemplars t = List.rev t.reservoir

let find_exemplar t rid = List.find_opt (fun r -> r.rid = rid) t.reservoir
let latency_hist t = t.lat
let issued t = t.n_issued
let completed_count t = t.n_completed
let overflow t = t.overflow
let evictions t = t.evictions
let completed_dropped t = t.completed_dropped

(** {1 The sidecar exemplar index}

    [simtrace record --wrk] writes the top-k exemplars next to the
    audit log as [<log>.spans] so a later [simtrace debug
    --seek-request] can map a request id to its audit event window
    without re-running the workload. *)

(* /2 appended the hottest call site of each exemplar's window as a
   trailing column; the rid stays field 2, so tooling that extracts
   ids positionally keeps working, and /1 files still parse. *)
let sidecar_artifact_kind = "spans"
let sidecar_artifact_version = 2

let sidecar t : string =
  let b = Buffer.create 256 in
  Sim_artifact.Artifact.add_magic b ~kind:sidecar_artifact_kind
    ~version:sidecar_artifact_version;
  List.iter
    (fun r ->
      let site = match hot_site r with Some (pc, _) -> pc | None -> -1 in
      Buffer.add_string b
        (Printf.sprintf "R %d %Ld %Ld %d %d %Ld %d\n" r.rid r.issue_ts
           r.complete_ts r.ev_lo r.ev_hi (latency r) site))
    (exemplars t);
  Buffer.contents b

type sidecar_row = {
  x_rid : int;
  x_issue : int64;
  x_complete : int64;
  x_ev_lo : int;
  x_ev_hi : int;
  x_latency : int64;
  x_site : int;  (** hottest call-site PC of the window, -1 if unknown *)
}

(** Parse a sidecar produced by {!sidecar} (/2, or the site-less /1);
    rows keep file (slowest first) order.  Raises [Failure] on a bad
    magic or row. *)
let parse_sidecar ?file (s : string) : sidecar_row list =
  match
    Sim_artifact.Artifact.parse_magic ?file ~kind:sidecar_artifact_kind
      ~accept:[ 1; sidecar_artifact_version ] s
  with
  | Error e -> failwith e
  | Ok (v, rows) ->
      let v1 = v = 1 in
      List.filter_map
        (fun line ->
          let line = String.trim line in
          if line = "" then None
          else
            let mk rid issue complete lo hi lat site =
              Some
                {
                  x_rid = rid;
                  x_issue = issue;
                  x_complete = complete;
                  x_ev_lo = lo;
                  x_ev_hi = hi;
                  x_latency = lat;
                  x_site = site;
                }
            in
            try
              if v1 then
                Scanf.sscanf line "R %d %Ld %Ld %d %d %Ld"
                  (fun rid issue complete lo hi lat ->
                    mk rid issue complete lo hi lat (-1))
              else
                Scanf.sscanf line "R %d %Ld %Ld %d %d %Ld %d" mk
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              failwith ("bad spans sidecar row: " ^ line))
        rows

(** {1 Reports} *)

let pct v total =
  if total <= 0L then 0.0
  else 100.0 *. Int64.to_float v /. Int64.to_float total

(** Human-readable report: machine phase breakdown, request-latency
    percentiles and the exemplar table. *)
let report ?(name_of_nr = string_of_int)
    ?(name_of_site = fun pc -> Printf.sprintf "0x%x" pc) t ~clks : string =
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let tt = totals t ~clks in
  out "phase attribution (machine-wide, cycles):\n";
  List.iter
    (fun (name, c) ->
      out "  %-12s %14Ld  %5.1f%%\n" name c (pct c tt.t_total))
    (totals_rows tt);
  out "  %-12s %14Ld\n" "total" tt.t_total;
  (match tt.t_kernel_by_nr with
  | [] -> ()
  | rows ->
      out "\nkernel cycles by syscall:\n";
      List.iteri
        (fun i (nr, c) ->
          if i < 12 then out "  %-16s %14Ld\n" (name_of_nr nr) c)
        rows);
  out "\nrequests: %d issued, %d completed" t.n_issued t.n_completed;
  if t.overflow > 0 then out ", %d DROPPED (in-flight cap)" t.overflow;
  out "\n";
  let h = t.lat in
  if Stats.Log_hist.count h > 0 then begin
    out "request latency (cycles): ";
    List.iter
      (fun p ->
        out "p%g=%.0f " p (Stats.Log_hist.percentile h p))
      [ 50.0; 90.0; 99.0; 99.9 ];
    out "max=%.0f\n" (Stats.Log_hist.max_value h)
  end;
  (match exemplars t with
  | [] -> ()
  | ex ->
      out "\nslowest requests (top-%d reservoir, %d evictions):\n" t.topk
        t.evictions;
      out "  %6s %12s %10s %10s  %s\n" "rid" "latency" "ev_lo" "ev_hi"
        "phase breakdown";
      List.iter
        (fun r ->
          let parts =
            req_phases r
            |> List.filter (fun (_, c) -> c > 0L)
            |> List.map (fun (n, c) -> Printf.sprintf "%s=%Ld" n c)
            |> String.concat " "
          in
          let hot =
            match hot_site r with
            | Some (pc, c) ->
                Printf.sprintf "  hot=%s (%Ld)" (name_of_site pc) c
            | None -> ""
          in
          out "  %6d %12Ld %10d %10d  %s%s\n" r.rid (latency r) r.ev_lo
            r.ev_hi parts hot)
        ex);
  Buffer.contents b
