(** Chrome trace-event JSON export.

    Produces the {e JSON Object Format} of the Trace Event spec
    (loadable in Perfetto and chrome://tracing):

    - one thread track per simulated CPU (process "machine"), carrying
      syscall spans as complete ["X"] events and everything else as
      instant ["i"] events — so rewrites, selector flips, signals,
      mmaps and icache invalidations appear exactly where they
      happened on that CPU's timeline;
    - one async track per task ([ph] ["b"]/["e"], category
      ["syscall"]), so a syscall that migrates or blocks still reads
      as one span of its task.

    Timestamps are microseconds (the format's native unit) derived
    from simulated cycles at the simulator's 2.1 GHz clock.  Traces
    can hold millions of events, so the exporter streams them into one
    buffer instead of building a {!Sim_artifact.Json.t} tree; strings
    go through the shared {!Sim_artifact.Json.escape}.  The shape is
    asserted by a parser in test_trace. *)

let cycles_per_us = 2100.0
let us_of_cycles (c : int64) = Int64.to_float c /. cycles_per_us

let escape = Sim_artifact.Json.escape

(* One JSON event object; [args] are pre-rendered "key":value pairs. *)
let obj b ~first ~name ~cat ~ph ~ts ?dur ~pid ~tid ?id ?scope ~args () =
  if not !first then Buffer.add_string b ",";
  first := false;
  Buffer.add_string b
    (Printf.sprintf "\n    {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.4f"
       (escape name) (escape cat) ph ts);
  (match dur with
  | Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%.4f" d)
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid tid);
  (match id with
  | Some i -> Buffer.add_string b (Printf.sprintf ",\"id\":\"%s\"" (escape i))
  | None -> ());
  (match scope with
  | Some s -> Buffer.add_string b (Printf.sprintf ",\"s\":\"%s\"" s)
  | None -> ());
  Buffer.add_string b
    (if args = [] then "}"
     else
       Printf.sprintf ",\"args\":{%s}}"
         (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) args)))

let meta b ~first ~name ~pid ?tid ~value () =
  if not !first then Buffer.add_string b ",";
  first := false;
  Buffer.add_string b
    (Printf.sprintf "\n    {\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d" name pid);
  (match tid with
  | Some t -> Buffer.add_string b (Printf.sprintf ",\"tid\":%d" t)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"args\":{\"name\":\"%s\"}}" (escape value))

let str v = Printf.sprintf "\"%s\"" (escape v)
let hex v = str (Printf.sprintf "0x%x" v)

let instant_args (k : Event.kind) =
  match k with
  | Event.Signal_deliver { signo; handler } ->
      [ ("signo", string_of_int signo); ("handler", hex handler) ]
  | Event.Selector_flip { allow } ->
      [ ("selector", str (if allow then "ALLOW" else "BLOCK")) ]
  | Event.Rewrite { site } -> [ ("site", hex site) ]
  | Event.Sweep { sites; bytes_scanned } ->
      [ ("sites", string_of_int sites); ("bytes", string_of_int bytes_scanned) ]
  | Event.Context_switch { prev_tid; next_tid } ->
      [ ("prev_tid", string_of_int prev_tid); ("next_tid", string_of_int next_tid) ]
  | Event.Task_spawn { child_tid } -> [ ("child_tid", string_of_int child_tid) ]
  | Event.Mmap { addr; len; prot_exec } ->
      [ ("addr", hex addr); ("len", string_of_int len);
        ("exec", if prot_exec then "true" else "false") ]
  | Event.Munmap { addr; len } ->
      [ ("addr", hex addr); ("len", string_of_int len) ]
  | Event.Mprotect { addr; len; prot_exec } ->
      [ ("addr", hex addr); ("len", string_of_int len);
        ("exec", if prot_exec then "true" else "false") ]
  | Event.Icache_invalidate { page } -> [ ("page", string_of_int page) ]
  | Event.Jit_emit { addr; len } ->
      [ ("addr", hex addr); ("len", string_of_int len) ]
  | Event.Sigreturn | Event.Syscall_enter _ | Event.Syscall_exit _ -> []

(** Render [groups] — named (run, events) pairs — as one Chrome trace
    JSON document.  Each group gets two processes: pid [2g] "machine:
    <name>" (per-CPU threads) and pid [2g+1] "tasks: <name>" (async
    per-task spans).  [name_of_nr] names syscall spans. *)
let chrome_json_groups ?(name_of_nr = string_of_int)
    (groups : (string * Event.t list) list) : string =
  let b = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string b "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  List.iteri
    (fun g (gname, events) ->
      let pid_cpu = 2 * g and pid_task = (2 * g) + 1 in
      let seen_cpus = Hashtbl.create 4 and seen_tids = Hashtbl.create 8 in
      List.iter
        (fun (e : Event.t) ->
          if not (Hashtbl.mem seen_cpus e.cpu) then begin
            Hashtbl.replace seen_cpus e.cpu ();
            meta b ~first ~name:"thread_name" ~pid:pid_cpu ~tid:e.cpu
              ~value:(Printf.sprintf "cpu %d" e.cpu) ()
          end;
          if e.tid >= 0 && not (Hashtbl.mem seen_tids e.tid) then begin
            Hashtbl.replace seen_tids e.tid ();
            meta b ~first ~name:"thread_name" ~pid:pid_task ~tid:e.tid
              ~value:(Printf.sprintf "task %d" e.tid) ()
          end)
        events;
      meta b ~first ~name:"process_name" ~pid:pid_cpu
        ~value:("machine: " ^ gname) ();
      meta b ~first ~name:"process_name" ~pid:pid_task
        ~value:("tasks: " ^ gname) ();
      let spans_ = Summary.spans events in
      List.iteri
        (fun i (s : Summary.span) ->
          let name = name_of_nr s.sp_nr in
          let ts = us_of_cycles s.sp_start in
          let dur = us_of_cycles s.sp_dur in
          let args =
            [
              ("nr", string_of_int s.sp_nr);
              ("path", str (Event.path_name s.sp_path));
              ("ret", str (Int64.to_string s.sp_ret));
              ("blocked", if s.sp_blocked then "true" else "false");
              ("tid", string_of_int s.sp_tid);
            ]
          in
          (* the per-CPU track: a complete span where it dispatched *)
          obj b ~first ~name ~cat:"syscall" ~ph:"X" ~ts ~dur ~pid:pid_cpu
            ~tid:s.sp_cpu ~args ();
          (* the per-task track: an async span surviving migration *)
          let id = Printf.sprintf "%d.%d.%d" g s.sp_tid i in
          obj b ~first ~name ~cat:"syscall" ~ph:"b" ~ts ~pid:pid_task
            ~tid:s.sp_tid ~id ~args ();
          obj b ~first ~name ~cat:"syscall" ~ph:"e"
            ~ts:(ts +. dur) ~pid:pid_task ~tid:s.sp_tid ~id ~args:[] ())
        spans_;
      List.iter
        (fun (e : Event.t) ->
          match e.kind with
          | Event.Syscall_enter _ | Event.Syscall_exit _ -> ()
          | k ->
              obj b ~first ~name:(Event.kind_name k) ~cat:"machine" ~ph:"i"
                ~ts:(us_of_cycles e.ts) ~pid:pid_cpu ~tid:e.cpu ~scope:"t"
                ~args:(("tid", string_of_int e.tid) :: instant_args k)
                ())
        events)
    groups;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(** Single-run export: {!chrome_json_groups} with one group. *)
let chrome_json ?name_of_nr ?(name = "trace") (events : Event.t list) : string
    =
  chrome_json_groups ?name_of_nr [ (name, events) ]

(** Request-track export: one thread track per request id under a
    single "requests" process, each carrying that request's causal
    phase slices as complete ["X"] events — so a p99 outlier reads as
    one horizontal lane whose colors show where its latency went.

    Deliberately generic: takes [(rid, segments)] pairs where a
    segment is [(phase name, start cycles, end cycles)], so it knows
    nothing about the span recorder that produced them.  Segments are
    expected non-overlapping and in start order per request (the
    recorder guarantees both); timestamps are microseconds like
    {!chrome_json}. *)
let request_tracks_json ?(name = "requests")
    (tracks : (int * (string * int64 * int64) list) list) : string =
  let b = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string b "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  meta b ~first ~name:"process_name" ~pid:1 ~value:name ();
  List.iter
    (fun (rid, segs) ->
      meta b ~first ~name:"thread_name" ~pid:1 ~tid:rid
        ~value:(Printf.sprintf "request %d" rid) ();
      List.iter
        (fun (phase, s_start, s_end) ->
          let ts = us_of_cycles s_start in
          let dur = us_of_cycles (Int64.sub s_end s_start) in
          obj b ~first ~name:phase ~cat:"request" ~ph:"X" ~ts ~dur ~pid:1
            ~tid:rid
            ~args:[ ("rid", string_of_int rid) ]
            ())
        segs)
    tracks;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
