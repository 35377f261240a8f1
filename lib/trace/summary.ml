(** Aggregation over a traced run: syscall spans, per-mechanism
    dispatch-path counts, and syscall-latency histograms with
    p50/p90/p99 (via the streaming {!Sim_stats.Stats.Log_hist}
    sketch, so percentile memory is O(buckets) however many spans a
    run produced).

    Works on the event list {!Tracer.events} returns; knows nothing
    about the kernel, so syscall names are supplied by the caller
    ([?name_of_nr], e.g. [Defs.syscall_name]). *)

module Stats = Sim_stats.Stats

(** One completed (or blocked) syscall, paired from its
    enter/exit events. *)
type span = {
  sp_nr : int;
  sp_path : Event.dispatch_path;
  sp_tid : int;
  sp_cpu : int;
  sp_start : int64;  (** cycle time at syscall entry *)
  sp_dur : int64;  (** cycles from entry to exit (or to blocking) *)
  sp_ret : int64;
  sp_blocked : bool;
}

(** Pair enter/exit events into spans, per task.  Enter and exit are
    emitted by the same dispatcher invocation, so per tid they
    strictly alternate; a trailing unmatched enter (task died inside
    the dispatcher) is dropped. *)
let spans (events : Event.t list) : span list =
  let pending : (int, Event.t * int * Event.dispatch_path) Hashtbl.t =
    Hashtbl.create 16
  in
  let out = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Syscall_enter { nr; path } ->
          Hashtbl.replace pending e.tid (e, nr, path)
      | Event.Syscall_exit { nr; path; ret; blocked } -> (
          match Hashtbl.find_opt pending e.tid with
          | Some (enter, enr, _) when enr = nr ->
              Hashtbl.remove pending e.tid;
              out :=
                {
                  sp_nr = nr;
                  sp_path = path;
                  sp_tid = e.tid;
                  sp_cpu = enter.cpu;
                  sp_start = enter.ts;
                  sp_dur = Int64.sub e.ts enter.ts;
                  sp_ret = ret;
                  sp_blocked = blocked;
                }
                :: !out
          | _ -> ())
      | _ -> ())
    events;
  List.rev !out

(** Dispatch-path histogram: completed-span count per mechanism, every
    path listed (zeros included) in {!Event.all_paths} order. *)
let path_counts (spans_ : span list) : (Event.dispatch_path * int) list =
  List.map
    (fun p ->
      (p, List.length (List.filter (fun s -> s.sp_path = p) spans_)))
    Event.all_paths

(** Latency statistics for one (syscall nr, dispatch path) bucket. *)
type latency_row = {
  lr_nr : int;
  lr_path : Event.dispatch_path;
  lr_count : int;
  lr_p50 : float;
  lr_p90 : float;
  lr_p99 : float;
  lr_max : float;  (** all in cycles *)
}

(** Per-(nr, path) latency rows over non-blocked spans, busiest bucket
    first.  Durations stream into one log-bucketed sketch per bucket:
    percentiles come out with bounded relative error (1/64 a bucket's
    width) without ever materializing the sample. *)
let latency_rows (spans_ : span list) : latency_row list =
  let buckets : (int * Event.dispatch_path, Stats.Log_hist.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun s ->
      if not s.sp_blocked then
        let key = (s.sp_nr, s.sp_path) in
        let h =
          match Hashtbl.find_opt buckets key with
          | Some h -> h
          | None ->
              let h = Stats.Log_hist.create ~sub:64 () in
              Hashtbl.replace buckets key h;
              h
        in
        Stats.Log_hist.add h (Int64.to_float s.sp_dur))
    spans_;
  Hashtbl.fold
    (fun (nr, path) h acc ->
      {
        lr_nr = nr;
        lr_path = path;
        lr_count = Stats.Log_hist.count h;
        lr_p50 = Stats.Log_hist.percentile h 50.0;
        lr_p90 = Stats.Log_hist.percentile h 90.0;
        lr_p99 = Stats.Log_hist.percentile h 99.0;
        lr_max = Stats.Log_hist.max_value h;
      }
      :: acc)
    buckets []
  |> List.sort (fun a b -> compare (b.lr_count, a.lr_nr) (a.lr_count, b.lr_nr))

(** Count of non-span events per kind name (rewrites, flips, ...). *)
let kind_counts (events : Event.t list) : (string * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Syscall_enter _ | Event.Syscall_exit _ -> ()
      | k ->
          let name = Event.kind_name k in
          Hashtbl.replace tbl name
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(** The human-readable report: dispatch-path counts, other-event
    counts, the per-syscall latency table, and the ring overflow
    accounting. *)
let report ?(name_of_nr = string_of_int) (tr : Tracer.t) : string =
  let events = Tracer.events tr in
  let spans_ = spans events in
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "trace summary: %d events retained, %d dropped (ring overflow)\n"
    (Tracer.retained tr) (Tracer.dropped tr);
  out "\ndispatch paths (completed syscalls):\n";
  List.iter
    (fun (p, n) -> out "  %-12s %8d\n" (Event.path_name p) n)
    (path_counts spans_);
  (match kind_counts events with
  | [] -> ()
  | kinds ->
      out "\nother events:\n";
      List.iter (fun (k, n) -> out "  %-18s %8d\n" k n) kinds);
  out "\nsyscall latency (cycles):\n";
  out "  %-16s %-12s %7s %8s %8s %8s %8s\n" "syscall" "path" "count" "p50"
    "p90" "p99" "max";
  List.iter
    (fun r ->
      out "  %-16s %-12s %7d %8.0f %8.0f %8.0f %8.0f\n" (name_of_nr r.lr_nr)
        (Event.path_name r.lr_path) r.lr_count r.lr_p50 r.lr_p90 r.lr_p99
        r.lr_max)
    (latency_rows spans_);
  Buffer.contents b
