(** Tests for the machine-wide event tracer (lib/trace) and its kernel
    wiring: ring overflow accounting, the slow-path -> fast-path
    dispatch attribution under lazypoline, the observation-only
    guarantee (a traced run is cycle- and state-identical to an
    untraced one), and the shape of the Chrome trace-event JSON. *)

open Sim_kernel
module Ev = Sim_trace.Event
module Tracer = Sim_trace.Tracer
module Hook = Lazypoline.Hook

(* --- ring overflow ------------------------------------------------- *)

let test_ring_overflow () =
  let tr = Tracer.create ~capacity:4 ~ncpus:2 () in
  for i = 1 to 10 do
    Tracer.emit tr ~cpu:0 ~tid:1 ~ts:(Int64.of_int i) Ev.Sigreturn
  done;
  Tracer.emit tr ~cpu:1 ~tid:2 ~ts:100L Ev.Sigreturn;
  Alcotest.(check int) "retained" 5 (Tracer.retained tr);
  Alcotest.(check int) "dropped" 6 (Tracer.dropped tr);
  Alcotest.(check int) "emitted counts drops" 11 (Tracer.emitted tr);
  (* drop-newest: the earliest events survive, the overflow is counted *)
  Alcotest.(check (list int64))
    "oldest events kept, merged in time order"
    [ 1L; 2L; 3L; 4L; 100L ]
    (List.map (fun (e : Ev.t) -> e.Ev.ts) (Tracer.events tr));
  Tracer.clear tr;
  Alcotest.(check int) "clear resets retained" 0 (Tracer.retained tr);
  Alcotest.(check int) "clear resets dropped" 0 (Tracer.dropped tr)

let test_ring_cpu_clamp () =
  (* out-of-range CPU indices (external actors) land on ring 0 *)
  let tr = Tracer.create ~capacity:4 ~ncpus:2 () in
  Tracer.emit tr ~cpu:7 ~tid:1 ~ts:1L Ev.Sigreturn;
  Tracer.emit tr ~cpu:(-1) ~tid:1 ~ts:2L Ev.Sigreturn;
  Alcotest.(check int) "retained on ring 0" 2 (Tracer.retained tr);
  List.iter
    (fun (e : Ev.t) -> Alcotest.(check int) "clamped to cpu 0" 0 e.Ev.cpu)
    (Tracer.events tr)

(* --- lazypoline slow-path -> fast-path attribution ----------------- *)

let prog_loop =
  {|
long main() {
  long i = 0;
  while (i < 3) {
    syscall(39);
    i = i + 1;
  }
  return 0;
}
|}

(* Run [src] under lazypoline; returns the task and, when [trace] is
   set, the recorded events. *)
let lazy_run ?(trace = true) src =
  let k = Kernel.create () in
  let tr = if trace then Some (Tracer.create ~ncpus:1 ()) else None in
  Option.iter (fun tr -> Kernel.observe k (Observers.tracer tr)) tr;
  let t = Kernel.spawn k (Minicc.Codegen.compile_to_image src) in
  ignore (Lazypoline.install k t (Hook.dummy ()));
  if not (Kernel.run_until_exit k) then failwith "program did not terminate";
  (t, match tr with Some tr -> Tracer.events tr | None -> [])

let index_of f events =
  let rec go i = function
    | [] -> -1
    | e :: tl -> if f e then i else go (i + 1) tl
  in
  go 0 events

let test_slow_then_fast () =
  let _t, events = lazy_run prog_loop in
  (* the loop's getpid site: SUD slow path once, rewritten fast path
     for every later iteration *)
  let getpid_paths =
    List.filter_map
      (fun (e : Ev.t) ->
        match e.Ev.kind with
        | Ev.Syscall_enter { nr = 39; path } -> Some (Ev.path_name path)
        | _ -> None)
      events
  in
  Alcotest.(check (list string))
    "getpid dispatch paths"
    [ "sud-sigsys"; "fast-path"; "fast-path" ]
    getpid_paths;
  (* the rewrite and the selector flip happen before the slow-path
     dispatch they enable *)
  let first_sud_enter =
    index_of
      (fun (e : Ev.t) ->
        match e.Ev.kind with
        | Ev.Syscall_enter { path = Ev.Sud_sigsys; _ } -> true
        | _ -> false)
      events
  in
  let first_rewrite =
    index_of
      (fun (e : Ev.t) ->
        match e.Ev.kind with Ev.Rewrite _ -> true | _ -> false)
      events
  in
  let first_flip =
    index_of
      (fun (e : Ev.t) ->
        match e.Ev.kind with Ev.Selector_flip _ -> true | _ -> false)
      events
  in
  Alcotest.(check bool) "saw a slow-path dispatch" true (first_sud_enter >= 0);
  Alcotest.(check bool) "saw a rewrite" true (first_rewrite >= 0);
  Alcotest.(check bool) "saw a selector flip" true (first_flip >= 0);
  Alcotest.(check bool) "rewrite precedes its slow-path dispatch" true
    (first_rewrite < first_sud_enter);
  Alcotest.(check bool) "selector flip precedes it too" true
    (first_flip < first_sud_enter);
  (* one rewrite per site that went the slow path, at distinct sites *)
  let rewrite_sites =
    List.filter_map
      (fun (e : Ev.t) ->
        match e.Ev.kind with Ev.Rewrite { site } -> Some site | _ -> None)
      events
  in
  let sud_spans =
    List.filter
      (fun (s : Sim_trace.Summary.span) -> s.sp_path = Ev.Sud_sigsys)
      (Sim_trace.Summary.spans events)
  in
  Alcotest.(check int)
    "one rewrite per slow-path syscall"
    (List.length sud_spans) (List.length rewrite_sites);
  Alcotest.(check int)
    "rewrite sites are distinct"
    (List.length rewrite_sites)
    (List.length (List.sort_uniq compare rewrite_sites))

let test_zpoline_sweep_event () =
  let k = Kernel.create () in
  let tr = Tracer.create ~ncpus:1 () in
  Kernel.observe k (Observers.tracer tr);
  let t = Kernel.spawn k (Minicc.Codegen.compile_to_image prog_loop) in
  ignore (Baselines.Zpoline.install k t (Hook.dummy ()));
  if not (Kernel.run_until_exit k) then failwith "did not terminate";
  let sweeps =
    List.filter_map
      (fun (e : Ev.t) ->
        match e.Ev.kind with
        | Ev.Sweep { sites; bytes_scanned } -> Some (sites, bytes_scanned)
        | _ -> None)
      (Tracer.events tr)
  in
  match sweeps with
  | [ (sites, bytes) ] ->
      Alcotest.(check bool) "sweep rewrote sites" true (sites > 0);
      Alcotest.(check bool) "sweep scanned bytes" true (bytes > 0)
  | l -> Alcotest.failf "expected exactly one sweep event, got %d" (List.length l)

(* --- tracing is observation-only ----------------------------------- *)

let machine_state (t : Types.task) =
  let regs = List.init 16 (fun r -> Sim_cpu.Cpu.peek_reg t.Types.ctx r) in
  (t.Types.exit_code, t.Types.tcycles, regs)

let test_trace_is_observation_only () =
  let t_plain, _ = lazy_run ~trace:false prog_loop in
  let t_traced, events = lazy_run ~trace:true prog_loop in
  Alcotest.(check bool) "the traced run recorded events" true (events <> []);
  Alcotest.(check bool)
    "final task state is bit-identical" true
    (machine_state t_plain = machine_state t_traced)

let prop_tracing_never_changes_cycles =
  let configs =
    Workloads.Microbench_prog.
      [
        Native; Native_sud_allow; Zpoline; Lazypoline_full;
        Lazypoline_noxstate; Sud; Seccomp_bpf;
      ]
  in
  QCheck.Test.make ~count:12
    ~name:"tracing never changes simulated cycles (any mechanism)"
    QCheck.(pair (int_range 5 60) (int_range 0 (List.length configs - 1)))
    (fun (iters, ci) ->
      let config = List.nth configs ci in
      let plain = Workloads.Microbench_prog.run ~iters config in
      let tr = Tracer.create ~ncpus:1 () in
      let traced =
        Workloads.Microbench_prog.run ~iters
          ~observers:[ Observers.tracer tr ] config
      in
      plain = traced)

(* --- Chrome trace-event JSON shape --------------------------------- *)

(* A minimal JSON parser — just enough to assert the exporter's output
   is well-formed without pulling in a JSON dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then
      raise (Bad_json (Printf.sprintf "expected '%c' at byte %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (match peek () with
          | 'u' ->
              advance ();
              let code = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_char b
                (match code with Some c when c < 0x80 -> Char.chr c | _ -> '?')
          | 'n' ->
              advance ();
              Buffer.add_char b '\n'
          | 't' ->
              advance ();
              Buffer.add_char b '\t'
          | c ->
              advance ();
              Buffer.add_char b c);
          go ()
      | '\000' -> raise (Bad_json "eof inside string")
      | c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_lit lit v =
    String.iter expect lit;
    v
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          J_obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((key, v) :: acc)
            | '}' ->
                advance ();
                J_obj (List.rev ((key, v) :: acc))
            | _ -> raise (Bad_json "malformed object")
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          J_arr []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                J_arr (List.rev (v :: acc))
            | _ -> raise (Bad_json "malformed array")
          in
          elems []
    | '"' -> J_str (parse_string ())
    | 't' -> parse_lit "true" (J_bool true)
    | 'f' -> parse_lit "false" (J_bool false)
    | 'n' -> parse_lit "null" J_null
    | _ ->
        let start = !pos in
        let rec num () =
          match peek () with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' ->
              advance ();
              num ()
          | _ -> ()
        in
        num ();
        if !pos = start then
          raise (Bad_json (Printf.sprintf "no value at byte %d" start));
        J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let jfield name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

let jstr = function Some (J_str s) -> s | _ -> raise (Bad_json "want string")

let test_chrome_json_shape () =
  let _t, events = lazy_run prog_loop in
  let doc =
    parse_json
      (Sim_trace.Export.chrome_json ~name_of_nr:Defs.syscall_name events)
  in
  let trace_events =
    match jfield "traceEvents" doc with
    | Some (J_arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "trace is non-empty" true (trace_events <> []);
  (* every event is an object with ph/pid; non-metadata events carry a
     numeric timestamp *)
  List.iter
    (fun e ->
      let ph = jstr (jfield "ph" e) in
      (match jfield "pid" e with
      | Some (J_num _) -> ()
      | _ -> Alcotest.fail "event without numeric pid");
      if ph <> "M" then
        match jfield "ts" e with
        | Some (J_num ts) ->
            Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
        | _ -> Alcotest.fail "event without numeric ts")
    trace_events;
  let complete_spans =
    List.filter (fun e -> jstr (jfield "ph" e) = "X") trace_events
  in
  Alcotest.(check bool) "has syscall spans" true (complete_spans <> []);
  List.iter
    (fun e ->
      Alcotest.(check string) "span category" "syscall" (jstr (jfield "cat" e));
      match jfield "dur" e with
      | Some (J_num _) -> ()
      | _ -> Alcotest.fail "span without duration")
    complete_spans;
  (* getpid spans are named by name_of_nr and carry the dispatch path *)
  let getpid_paths =
    List.filter_map
      (fun e ->
        if jstr (jfield "name" e) = "getpid" then
          match jfield "args" e with
          | Some args -> Some (jstr (jfield "path" args))
          | None -> None
        else None)
      complete_spans
  in
  Alcotest.(check bool) "getpid span has sud-sigsys path" true
    (List.mem "sud-sigsys" getpid_paths);
  Alcotest.(check bool) "getpid span has fast path" true
    (List.mem "fast-path" getpid_paths);
  (* rewrites appear as instant events *)
  let instants =
    List.filter (fun e -> jstr (jfield "ph" e) = "i") trace_events
  in
  Alcotest.(check bool) "has a rewrite instant" true
    (List.exists (fun e -> jstr (jfield "name" e) = "rewrite") instants);
  (* async per-task spans are balanced *)
  let count ph =
    List.length (List.filter (fun e -> jstr (jfield "ph" e) = ph) trace_events)
  in
  Alcotest.(check int) "async begins match ends" (count "b") (count "e")

(* --- Perfetto request-track export (simtrace spans --out) ---------- *)

let jnum = function
  | Some (J_num n) -> n
  | _ -> raise (Bad_json "want number")

let test_request_tracks_shape () =
  (* Real span data: a small wrk run under lazypoline, exported the
     way simtrace spans does — one track per exemplar request. *)
  let module Obs = Sim_obs.Obs in
  let module D = Harness.Divergence in
  let o = Obs.create ~ncpus:1 () in
  let _a, _k, _t =
    D.run_audited ~observers:[ D.spans o ] D.Lazypoline_m
      (D.Wrk
         {
           flavour = Workloads.Webserver.Nginx_like;
           size_kb = 2;
           conns = 3;
           requests = 40;
         })
  in
  let tracks =
    List.map
      (fun r ->
        ( r.Obs.rid,
          List.map
            (fun s -> (Obs.phase_name s.Obs.s_phase, s.Obs.s_start, s.Obs.s_end))
            (Obs.segments r) ))
      (Obs.exemplars o)
  in
  Alcotest.(check bool) "exemplars to export" true (tracks <> []);
  let doc = parse_json (Sim_trace.Export.request_tracks_json tracks) in
  let trace_events =
    match jfield "traceEvents" doc with
    | Some (J_arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let metas, slices =
    List.partition (fun e -> jstr (jfield "ph" e) = "M") trace_events
  in
  (* one named track per request id, no extras *)
  let rids = List.map fst tracks |> List.sort_uniq compare in
  let meta_tids =
    List.filter_map
      (fun e ->
        if jstr (jfield "name" e) = "thread_name" then begin
          let tid = int_of_float (jnum (jfield "tid" e)) in
          (match jfield "args" e with
          | Some args ->
              Alcotest.(check string) "track named by request"
                (Printf.sprintf "request %d" tid)
                (jstr (jfield "name" args))
          | None -> Alcotest.fail "thread meta without args");
          Some tid
        end
        else None)
      metas
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "one track per rid" rids meta_tids;
  (* every slice is a complete event on its request's track *)
  Alcotest.(check bool) "has phase slices" true (slices <> []);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X" (jstr (jfield "ph" e));
      Alcotest.(check string) "category" "request" (jstr (jfield "cat" e));
      Alcotest.(check bool) "duration non-negative" true
        (jnum (jfield "dur" e) >= 0.0);
      let tid = int_of_float (jnum (jfield "tid" e)) in
      Alcotest.(check bool) "slice on a declared track" true
        (List.mem tid rids);
      match jfield "args" e with
      | Some args ->
          Alcotest.(check int) "rid arg matches track" tid
            (int_of_float (jnum (jfield "rid" args)))
      | None -> Alcotest.fail "slice without args")
    slices;
  (* per track: slices in time order and non-overlapping *)
  List.iter
    (fun rid ->
      let mine =
        List.filter
          (fun e -> int_of_float (jnum (jfield "tid" e)) = rid)
          slices
      in
      Alcotest.(check bool) "track non-empty" true (mine <> []);
      ignore
        (List.fold_left
           (fun prev_end e ->
             let ts = jnum (jfield "ts" e) in
             let dur = jnum (jfield "dur" e) in
             (* timestamps print at 1e-4 us precision; one simulated
                cycle is ~4.8e-4 us, so this slack only forgives
                formatting, never a real overlap *)
             Alcotest.(check bool)
               (Printf.sprintf "request %d: slices don't overlap" rid)
               true
               (ts >= prev_end -. 2.5e-4);
             ts +. dur)
           neg_infinity mine))
    rids

let tests =
  [
    Alcotest.test_case "ring: overflow accounting" `Quick test_ring_overflow;
    Alcotest.test_case "ring: cpu index clamp" `Quick test_ring_cpu_clamp;
    Alcotest.test_case "lazypoline: slow path then fast path" `Quick
      test_slow_then_fast;
    Alcotest.test_case "zpoline: sweep event" `Quick test_zpoline_sweep_event;
    Alcotest.test_case "tracing is observation-only" `Quick
      test_trace_is_observation_only;
    QCheck_alcotest.to_alcotest prop_tracing_never_changes_cycles;
    Alcotest.test_case "chrome JSON shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "perfetto request tracks shape" `Quick
      test_request_tracks_shape;
  ]
