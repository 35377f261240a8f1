(** simtrace — an strace for the simulated machine.

    Compiles a minicc program, runs it on the simulated kernel under a
    chosen interposition mechanism, and prints the syscall trace the
    interposer observed — or, with the [trace]/[report] subcommands,
    the machine-wide event trace the kernel-side tracer recorded
    (dispatch paths, rewrites, selector flips, signals, latency
    percentiles) as a Perfetto-loadable Chrome trace JSON or a
    human-readable report.

    The [stat] subcommand prints a perf-stat-style counter summary
    from the metrics registry; [profile] runs the cycle-clock sampling
    profiler and writes collapsed stacks for flamegraph.pl.

      dune exec bin/simtrace.exe -- run prog.c
      dune exec bin/simtrace.exe -- run --summary prog.c
      dune exec bin/simtrace.exe -- run --mech zpoline --jit prog.c
      dune exec bin/simtrace.exe -- trace prog.c --out trace.json
      dune exec bin/simtrace.exe -- report prog.c
      dune exec bin/simtrace.exe -- stat prog.c
      dune exec bin/simtrace.exe -- stat --format prometheus prog.c
      dune exec bin/simtrace.exe -- profile prog.c --out prof.folded
      dune exec bin/simtrace.exe -- sites prog.c --flame sites.folded
      dune exec bin/simtrace.exe -- record prog.c --out prog.audit
      dune exec bin/simtrace.exe -- replay prog.audit
      dune exec bin/simtrace.exe -- diff --mechanisms \
        raw,sud,zpoline,lazypoline,seccomp,ptrace prog.c
      dune exec bin/simtrace.exe -- disasm prog.c
      dune exec bin/simtrace.exe -- pin prog.c
*)

open Cmdliner
open Sim_kernel
module Hook = Lazypoline.Hook
module Audit = Sim_audit.Audit
module Divergence = Harness.Divergence
module Dbg = Sim_debug.Debug
module Art = Sim_artifact.Artifact
module Policy = Sim_policy.Policy

type mech = Lazypoline_m | Zpoline_m | Sud_m | Seccomp_user_m | Ptrace_m | None_m

let mech_of_string = function
  | "lazypoline" -> Ok Lazypoline_m
  | "zpoline" -> Ok Zpoline_m
  | "sud" -> Ok Sud_m
  | "seccomp-user" | "seccomp" -> Ok Seccomp_user_m
  | "ptrace" -> Ok Ptrace_m
  | "none" | "raw" -> Ok None_m
  | s -> Error (`Msg ("unknown mechanism: " ^ s))

let mech_to_string = function
  | Lazypoline_m -> "lazypoline"
  | Zpoline_m -> "zpoline"
  | Sud_m -> "sud"
  | Seccomp_user_m -> "seccomp-user"
  | Ptrace_m -> "ptrace"
  | None_m -> "none"

let mech_conv =
  let print fmt m = Format.pp_print_string fmt (mech_to_string m) in
  Arg.conv (mech_of_string, print)

let dmech_of_mech = function
  | Lazypoline_m -> Divergence.Lazypoline_m
  | Zpoline_m -> Divergence.Zpoline
  | Sud_m -> Divergence.Sud
  | Seccomp_user_m -> Divergence.Seccomp
  | Ptrace_m -> Divergence.Ptrace
  | None_m -> Divergence.Raw

let flavour_of_string = function
  | "nginx" | "nginx-sim" -> Ok Workloads.Webserver.Nginx_like
  | "lighttpd" | "lighttpd-sim" -> Ok Workloads.Webserver.Lighttpd_like
  | s -> Error (`Msg ("unknown flavour: " ^ s))

let flavour_conv =
  let print fmt f =
    Format.pp_print_string fmt (Workloads.Webserver.flavour_name f)
  in
  Arg.conv (flavour_of_string, print)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_out path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.c")

let mech_arg =
  Arg.(
    value
    & opt mech_conv Lazypoline_m
    & info [ "m"; "mech" ] ~docv:"MECH"
        ~doc:
          "Interposition mechanism: lazypoline, zpoline, sud, seccomp-user, \
           ptrace, or none.")

let jit_arg =
  Arg.(
    value & flag
    & info [ "jit" ]
        ~doc:
          "Run the program through the JIT driver (tcc -run style) instead \
           of loading it statically.")

let xstate_arg =
  Arg.(
    value & opt bool true
    & info [ "preserve-xstate" ]
        ~doc:"Preserve SSE/x87 state across interposition (lazypoline only).")

let setup_fs k =
  ignore (Vfs.add_file k.Types.vfs "/etc/hosts" "127.0.0.1 localhost\n");
  ignore (Vfs.add_file k.Types.vfs "/tmp/file_a" (String.make 256 'a'))

(** Compile [file], install [mech], run to completion.  The console
    hook is restored even if the run raises (it is global state; a
    leaked hook would redirect the console of every later run in this
    process).  Returns the kernel, the task and the decoded strace
    log — recorded kernel-side through the shared {!Strace} decoder,
    so it carries results with errno names and covers every dispatch
    (including [--mech none], which no interposer hook would see). *)
let execute ?policy ?blocks observers file mech jit preserve_xstate =
  let src = read_file file in
  let k = Kernel.create ?blocks () in
  List.iter (Kernel.observe k) observers;
  (match policy with Some p -> Kernel.attach_policy k p | None -> ());
  setup_fs k;
  let img =
    if jit then Minicc.Jit.driver_image src
    else Minicc.Codegen.compile_to_image src
  in
  if observers <> [] then Types.emit k (Types.Symbols img.Types.img_symbols);
  let t = Kernel.spawn k img in
  let log = Strace.attach k in
  let hook = Hook.strace () |> fst in
  (match mech with
  | None_m -> ()
  | Lazypoline_m ->
      ignore (Lazypoline.install ~preserve_xstate k t hook)
  | Zpoline_m -> ignore (Baselines.Zpoline.install k t hook)
  | Sud_m -> ignore (Baselines.Sud_interposer.install k t hook)
  | Seccomp_user_m -> ignore (Baselines.Seccomp_user.install k t hook)
  | Ptrace_m -> ignore (Baselines.Ptrace_interposer.install k t hook));
  Kernel.console_hook := Some print_string;
  let finished =
    Fun.protect
      ~finally:(fun () -> Kernel.console_hook := None)
      (fun () -> Kernel.run_until_exit k)
  in
  if not finished then prerr_endline "warning: program did not terminate";
  (k, t, log)

let print_summary (tr : Sim_trace.Tracer.t) =
  let spans = Sim_trace.Summary.spans (Sim_trace.Tracer.events tr) in
  Printf.eprintf "\ntrace ring: %d events retained, %d dropped\n"
    (Sim_trace.Tracer.retained tr)
    (Sim_trace.Tracer.dropped tr);
  let path_counts = Sim_trace.Summary.path_counts spans in
  let count_of p =
    match List.assoc_opt p path_counts with Some n -> n | None -> 0
  in
  Printf.eprintf "dispatch split: %d fast-path, %d slow-path (sud-sigsys)\n"
    (count_of Sim_trace.Event.Fast_path)
    (count_of Sim_trace.Event.Sud_sigsys);
  Printf.eprintf "\ndispatch paths:\n";
  List.iter
    (fun (p, n) ->
      Printf.eprintf "  %-12s %8d\n" (Sim_trace.Event.path_name p) n)
    path_counts;
  Printf.eprintf "\nsyscall latency (cycles):\n";
  Printf.eprintf "  %-16s %-12s %7s %8s %8s\n" "syscall" "path" "count" "p50"
    "p99";
  List.iter
    (fun (r : Sim_trace.Summary.latency_row) ->
      Printf.eprintf "  %-16s %-12s %7d %8.0f %8.0f\n"
        (Defs.syscall_name r.lr_nr)
        (Sim_trace.Event.path_name r.lr_path)
        r.lr_count r.lr_p50 r.lr_p99)
    (Sim_trace.Summary.latency_rows spans)

(** Block-engine counter deltas around one run: compiled blocks, block
    hits, SMC kills, interpreter fallbacks, and the hit ratio (share of
    retired instructions that executed inside a compiled block). *)
let print_block_summary ~before ~retired_before =
  let c0, h0, k0, i0, f0 = before in
  let c1, h1, k1, i1, f1 = Sim_cpu.Icache.block_totals () in
  let retired = !Sim_cpu.Ctx.retired - retired_before in
  let insns = i1 - i0 in
  let ratio = if retired > 0 then 100.0 *. float insns /. float retired else 0.0 in
  Printf.eprintf "\nblock engine: %d blocks compiled, %d block hits, %d SMC \
                  kills, %d fallbacks\n"
    (c1 - c0) (h1 - h0) (k1 - k0) (f1 - f0);
  Printf.eprintf "block-hit ratio: %d/%d instructions in blocks (%.1f%%)\n"
    insns retired ratio

(** Machine-wide causal-phase rows from the span recorder: where
    every simulated cycle of the run went. *)
let print_phase_summary (o : Sim_obs.Obs.t) (k : Types.kernel) =
  let clks = Types.clocks k in
  let tt = Sim_obs.Obs.totals o ~clks in
  let total = tt.Sim_obs.Obs.t_total in
  Printf.eprintf "\nphase attribution (cycles):\n";
  List.iter
    (fun (name, c) ->
      Printf.eprintf "  %-12s %14Ld  %5.1f%%\n" name c
        (if total > 0L then 100.0 *. Int64.to_float c /. Int64.to_float total
         else 0.0))
    (Sim_obs.Obs.totals_rows tt);
  Printf.eprintf "  %-12s %14Ld\n" "total" total

let run_cmd file mech jit preserve_xstate summary no_blocks =
  let tools =
    if summary then
      Some (Sim_trace.Tracer.create ~ncpus:1 (), Sim_obs.Obs.create ~ncpus:1 ())
    else None
  in
  let observers =
    match tools with
    | Some (tr, o) -> [ Observers.tracer tr; Divergence.spans o ]
    | None -> []
  in
  let block_before = Sim_cpu.Icache.block_totals () in
  let retired_before = !Sim_cpu.Ctx.retired in
  let blocks = if no_blocks then Some false else None in
  let k, t, log = execute ?blocks observers file mech jit preserve_xstate in
  List.iter (fun l -> Printf.eprintf "%s\n" l) (List.rev !log);
  Printf.eprintf "+++ exited with %d (%Ld cycles) +++\n" t.Types.exit_code
    t.Types.tcycles;
  Option.iter
    (fun (tr, o) ->
      print_summary tr;
      print_block_summary ~before:block_before ~retired_before;
      print_phase_summary o k)
    tools;
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

let trace_cmd file mech jit preserve_xstate out no_blocks =
  let tr = Sim_trace.Tracer.create ~ncpus:1 () in
  let blocks = if no_blocks then Some false else None in
  let _k, t, _log =
    execute ?blocks [ Observers.tracer tr ] file mech jit preserve_xstate
  in
  let json =
    Sim_trace.Export.chrome_json ~name_of_nr:Defs.syscall_name
      ~name:(Filename.basename file)
      (Sim_trace.Tracer.events tr)
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Printf.eprintf "wrote %s: %d events retained, %d dropped\n" out
    (Sim_trace.Tracer.retained tr)
    (Sim_trace.Tracer.dropped tr);
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

let report_cmd file mech jit preserve_xstate no_blocks =
  let tr = Sim_trace.Tracer.create ~ncpus:1 () in
  let blocks = if no_blocks then Some false else None in
  let _k, t, _log =
    execute ?blocks [ Observers.tracer tr ] file mech jit preserve_xstate
  in
  print_string (Sim_trace.Summary.report ~name_of_nr:Defs.syscall_name tr);
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

(** perf-stat-style one-shot counter summary from the metrics
    registry. *)
let stat_cmd file mech jit preserve_xstate format no_blocks =
  let m = Kmetrics.create () in
  let blocks = if no_blocks then Some false else None in
  let _k, t, _log =
    execute ?blocks [ Observers.metrics m ] file mech jit preserve_xstate
  in
  (match format with
  | "prometheus" -> print_string (Kmetrics.prometheus m)
  | "json" -> print_string (Kmetrics.to_json m)
  | _ ->
      let module M = Sim_metrics.Metrics in
      let v name = Option.value ~default:0 (M.find m.Kmetrics.registry name) in
      Printf.printf "\n Counter summary for '%s':\n\n" (Filename.basename file);
      let row fmt_name value = Printf.printf "  %16s  %s\n" value fmt_name in
      let irow name value = row name (Printf.sprintf "%d" value) in
      irow "cycles" (v "sim_cycles");
      irow "syscalls" (v "sim_syscalls_total");
      List.iter
        (fun p ->
          let n = Kmetrics.path_count m p in
          if n > 0 then
            irow
              (Printf.sprintf "syscalls:%s" (Sim_trace.Event.path_name p))
              n)
        Sim_trace.Event.all_paths;
      irow "rewrites" (v "sim_rewrites_total");
      irow "selector-flips" (v "sim_sud_selector_flips_total");
      irow "context-switches" (v "sim_context_switches_total");
      irow "signal-deliveries" (v "sim_signal_deliveries_total");
      irow "sigreturns" (v "sim_sigreturns_total");
      irow "icache-hits" (v "sim_icache_hits_total");
      irow "icache-misses" (v "sim_icache_misses_total");
      irow "blocks-compiled" (v "sim_blocks_compiled_total");
      irow "block-hits" (v "sim_block_hits_total");
      irow "block-insns" (v "sim_block_insns_total");
      irow "block-kills" (v "sim_block_kills_total");
      irow "mmap-bytes" (v "sim_mmap_bytes_total");
      irow "mprotect-bytes" (v "sim_mprotect_bytes_total");
      irow "w-to-x-flips" (v "sim_wx_flips_total");
      print_newline ());
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

(** Sampling profile: run with the cycle-clock sampler attached and
    write collapsed stacks ("comm;context;symbol count" lines) for
    flamegraph.pl. *)
let profile_cmd file mech jit preserve_xstate out period no_blocks =
  let p = Sim_metrics.Profiler.create ~period () in
  (* The kernel knows nothing about the interposer's address-space
     layout; the CLI does, so it registers the regions the sampler
     should attribute to the mechanism rather than the guest. *)
  List.iter
    (fun (lo, hi, name) -> Sim_metrics.Profiler.add_region p ~lo ~hi ~name)
    Lazypoline.Layout.interposer_windows;
  let blocks = if no_blocks then Some false else None in
  let _k, t, _log =
    execute ?blocks [ Observers.profiler p ] file mech jit preserve_xstate
  in
  let folded = Sim_metrics.Profiler.folded p in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc folded);
  Printf.eprintf "wrote %s: %d samples (1 per %d cycles)\n" out
    (Sim_metrics.Profiler.samples p)
    period;
  Printf.eprintf "\ntop stacks:\n";
  List.iter
    (fun (key, n) -> Printf.eprintf "  %8d  %s\n" n key)
    (Sim_metrics.Profiler.top ~n:10 p);
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

(** Per-call-site interposition ledger: run with the provenance
    recorder attached (guest rbp-chain unwinding at every audited
    syscall) and print the cost-sorted call-site table; optionally
    write collapsed call-site stacks for flamegraph.pl and the full
    ledger as JSON. *)
let sites_cmd file mech jit preserve_xstate flame out limit no_blocks =
  let module P = Sim_obs.Provenance in
  let p = P.create () in
  let blocks = if no_blocks then Some false else None in
  let _k, t, _log =
    execute ?blocks [ Observers.ledger p ] file mech jit preserve_xstate
  in
  print_string (P.table ~limit p);
  Printf.printf
    "\n%d distinct site(s), %d rewritten; unwind: %d/%d resolved (%.1f%%), %d \
     truncated\n"
    (P.distinct_sites p) (P.rewrite_count p) (P.unwind_resolved p)
    (P.unwind_attempts p)
    (100.0 *. P.unwind_success_rate p)
    (P.unwind_truncated p);
  (match flame with
  | Some path ->
      write_out path (P.folded ~comm:(Filename.basename file) p);
      Printf.eprintf "wrote %s (collapsed call-site stacks)\n" path
  | None -> ());
  (match out with
  | Some path ->
      write_out path (P.to_json p);
      Printf.eprintf "wrote %s\n" path
  | None -> ());
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

(** {1 record / replay / diff: the divergence auditor} *)

let audit_header file mech jit preserve_xstate checkpoint_every =
  let b = Buffer.create 256 in
  Art.add_magic b ~kind:Dbg.audit_artifact_kind
    ~version:Dbg.audit_artifact_version;
  Art.add_header b "file" file;
  Art.add_header b "mech" (mech_to_string mech);
  Art.add_header b "jit" (string_of_bool jit);
  Art.add_header b "preserve-xstate" (string_of_bool preserve_xstate);
  Art.add_header b "checkpoint-every" (string_of_int checkpoint_every);
  Buffer.contents b

(** One audited run; returns the auditor, the task and the serialized
    body (events, checkpoints, final state hash). *)
let audited_run file mech jit preserve_xstate checkpoint_every =
  let a = Audit.create ~checkpoint_every () in
  let k, t, _log =
    execute [ Observers.auditor a ] file mech jit preserve_xstate
  in
  let final = Kernel.audit_final_hash k a in
  (a, t, Divergence.log_string ~final_hash:final a)

let record_cmd file mech jit preserve_xstate out checkpoint_every =
  if checkpoint_every <= 0 then begin
    Printf.eprintf
      "record: --checkpoint-every must be a positive number of application \
       syscalls (got %d)\n"
      checkpoint_every;
    exit 2
  end;
  let a, t, body = audited_run file mech jit preserve_xstate checkpoint_every in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (audit_header file mech jit preserve_xstate checkpoint_every);
      output_string oc body);
  Printf.eprintf
    "recorded %d events (%d app syscalls, %d checkpoints) -> %s\n"
    (List.length (Audit.entries a))
    (Audit.app_count a)
    (List.length (Audit.checkpoints a))
    out;
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

let body_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "" && l.[0] <> '%')

let replay_cmd logfile =
  let content = read_file logfile in
  let header =
    match
      Art.parse_magic ~file:logfile ~kind:Dbg.audit_artifact_kind
        ~accept:[ Dbg.audit_artifact_version ] content
    with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (_v, rest) -> Art.headers rest
  in
  let get key default =
    match List.assoc_opt key header with Some v -> v | None -> default
  in
  let file = get "file" "" in
  let mech =
    match mech_of_string (get "mech" "none") with
    | Ok m -> m
    | Error (`Msg e) ->
        prerr_endline e;
        exit 2
  in
  let jit = bool_of_string (get "jit" "false") in
  let xstate = bool_of_string (get "preserve-xstate" "true") in
  let ck = int_of_string (get "checkpoint-every" "64") in
  let _, _, body = audited_run file mech jit xstate ck in
  let old_lines = Array.of_list (body_lines content) in
  let new_lines = Array.of_list (body_lines body) in
  let n = min (Array.length old_lines) (Array.length new_lines) in
  let mismatch = ref None in
  (try
     for i = 0 to n - 1 do
       if old_lines.(i) <> new_lines.(i) then begin
         mismatch := Some i;
         raise Exit
       end
     done;
     if Array.length old_lines <> Array.length new_lines then begin
       mismatch := Some n;
       raise Exit
     end
   with Exit -> ());
  match !mismatch with
  | None ->
      Printf.printf "replay OK: %d lines bit-identical (streams, %s)\n"
        (Array.length old_lines)
        (if Array.exists (fun l -> l.[0] = 'F') old_lines then
           "checkpoints and final state hash"
         else "checkpoints")
  | Some i ->
      let at j (arr : string array) =
        if j < Array.length arr then arr.(j) else "<stream ended>"
      in
      Printf.printf "replay DIVERGED at line %d:\n  recorded: %s\n  replayed: %s\n"
        (i + 1) (at i old_lines) (at i new_lines);
      exit 1

(** {1 debug: time-travel debugging on an audit log} *)

let debug_repl s =
  print_endline (Dbg.info s);
  print_endline "time-travel debugger; type 'help' for commands, 'q' to quit";
  let rec loop () =
    print_string "(tdb) ";
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
        let r = Dbg.exec_command s line in
        if r.Dbg.out <> "" then print_endline r.Dbg.out;
        if r.Dbg.quit then () else loop ()
  in
  loop ()

let debug_cmd logfile prog mech_override script seek_request seek_site
    no_blocks =
  let content = read_file logfile in
  match Dbg.parse_log content with
  | Error e ->
      Printf.eprintf "%s: %s\n" logfile e;
      exit 2
  | Ok log -> (
      (* Wrk logs carry their whole workload in the % wrk header;
         program logs need the recorded source. *)
      let workload =
        match Dbg.wrk_of_header log with
        | Some w -> w
        | None ->
            let file =
              match (prog, Dbg.header_value log "file") with
              | Some f, _ -> f
              | None, Some f -> f
              | None, None ->
                  Printf.eprintf
                    "%s has no %%%% file header; pass the program: simtrace \
                     debug LOG PROG.c\n"
                    logfile;
                  exit 2
            in
            let src =
              try read_file file
              with Sys_error e ->
                Printf.eprintf "cannot read the recorded program: %s\n" e;
                exit 2
            in
            let jit = Dbg.header_value log "jit" = Some "true" in
            Divergence.Prog { src; jit }
      in
      let mech =
        match mech_override with
        | None -> None
        | Some name -> (
            match Divergence.mech_of_string name with
            | Some m -> Some m
            | None ->
                Printf.eprintf "unknown mechanism: %s\n" name;
                exit 2)
      in
      let blocks = if no_blocks then Some false else None in
      let s = Dbg.create ?mech ?blocks ~workload log in
      let spans_path = logfile ^ ".spans" in
      if Sys.file_exists spans_path then
        Dbg.load_spans s (read_file spans_path);
      (match seek_request with
      | Some rid ->
          let r = Dbg.exec_command s (Printf.sprintf "request %d" rid) in
          if r.Dbg.out <> "" then print_endline r.Dbg.out;
          if not r.Dbg.ok then exit 1
      | None -> ());
      (match seek_site with
      | Some pc ->
          let r = Dbg.exec_command s (Printf.sprintf "site %s" pc) in
          if r.Dbg.out <> "" then print_endline r.Dbg.out;
          if not r.Dbg.ok then exit 1
      | None -> ());
      match script with
      | Some path -> exit (Dbg.run_script s ~print:print_string (read_file path))
      | None -> debug_repl s)

(** {1 spans: request-flow tracing on the wrk macrobench} *)

let spans_cmd mech flavour size_kb conns requests out record_out no_blocks =
  let dmech = dmech_of_mech mech in
  let blocks = if no_blocks then Some false else None in
  let o = Sim_obs.Obs.create ~ncpus:1 () in
  (* the provenance ledger supplies the symbol names of the exemplars'
     call sites *)
  let p = Sim_obs.Provenance.create () in
  let workload = Divergence.Wrk { flavour; size_kb; conns; requests } in
  let a, k, _t =
    Divergence.run_audited ?blocks
      ~observers:[ Divergence.spans o; Observers.ledger p ]
      dmech workload
  in
  let clks = Types.clocks k in
  print_string
    (Sim_obs.Obs.report ~name_of_nr:Defs.syscall_name
       ~name_of_site:(Sim_obs.Provenance.symbolize p) o ~clks);
  (match out with
  | Some path ->
      let tracks =
        List.map
          (fun r ->
            ( r.Sim_obs.Obs.rid,
              List.map
                (fun (s : Sim_obs.Obs.seg) ->
                  ( Sim_obs.Obs.phase_name s.Sim_obs.Obs.s_phase,
                    s.Sim_obs.Obs.s_start,
                    s.Sim_obs.Obs.s_end ))
                (Sim_obs.Obs.segments r) ))
          (Sim_obs.Obs.exemplars o)
      in
      write_out path (Sim_trace.Export.request_tracks_json tracks);
      Printf.eprintf "wrote %s: %d request track(s)\n" path
        (List.length tracks)
  | None -> ());
  (match record_out with
  | Some path ->
      let fh = Kernel.audit_final_hash k a in
      let header =
        let b = Buffer.create 128 in
        Art.add_magic b ~kind:Dbg.audit_artifact_kind
          ~version:Dbg.audit_artifact_version;
        Art.add_header b "wrk"
          (Printf.sprintf "%s %d %d %d"
             (Workloads.Webserver.flavour_name flavour)
             size_kb conns requests);
        Art.add_header b "mech" (Divergence.mech_name dmech);
        Art.add_header b "checkpoint-every" "64";
        Buffer.contents b
      in
      write_out path (header ^ Divergence.log_string ~final_hash:fh a);
      write_out (path ^ ".spans") (Sim_obs.Obs.sidecar o);
      Printf.eprintf "recorded %d app syscalls -> %s (+ %s.spans)\n"
        (Audit.app_count a) path path
  | None -> ());
  if Sim_obs.Obs.overflow o > 0 then begin
    Printf.eprintf "error: %d request(s) dropped at the in-flight cap\n"
      (Sim_obs.Obs.overflow o);
    exit 1
  end

let diff_cmd file mechs_str jit log_dir =
  let names =
    String.split_on_char ',' mechs_str
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let mechs =
    List.map
      (fun s ->
        match Divergence.mech_of_string s with
        | Some m -> m
        | None ->
            Printf.eprintf "unknown mechanism: %s\n" s;
            exit 2)
      names
  in
  let src = read_file file in
  let o = Divergence.diff ~mechs (Divergence.Prog { src; jit }) in
  (match log_dir with
  | Some dir ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      List.iter
        (fun (m, a, final) ->
          let path =
            Filename.concat dir (Divergence.mech_name m ^ ".audit")
          in
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Divergence.log_string ~final_hash:final a));
          Printf.eprintf "wrote %s\n" path)
        o.Divergence.o_runs
  | None -> ());
  print_string o.Divergence.o_text;
  if o.Divergence.o_findings <> [] then exit 1

(** {1 chaos / chaos-replay: seeded adversarial execution} *)

let chaos_cmd seeds mechs_str prog jit minimize clobber no_sigmicro repro_dir =
  let module Chaos = Harness.Chaos in
  let mechs =
    String.split_on_char ',' mechs_str
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match Divergence.mech_of_string s with
           | Some m -> m
           | None ->
               Printf.eprintf "unknown mechanism: %s\n" s;
               exit 2)
  in
  let rates =
    { Sim_chaos.Chaos.default_rates with Sim_chaos.Chaos.clobber_rate = clobber }
  in
  let wspecs =
    [ Chaos.Wmicro { iters = 40; nr = Defs.sys_getpid } ]
    @ (if no_sigmicro then [] else [ Chaos.Wsigmicro { iters = 8 } ])
    @
    match prog with
    | Some path -> [ Chaos.Wprog { path; jit } ]
    | None -> []
  in
  let r =
    Chaos.sweep ~rates ~minimize_failures:minimize ~seeds ~mechs
      ~read:read_file wspecs
  in
  print_string r.Chaos.rp_text;
  if r.Chaos.rp_failures <> [] then begin
    (match repro_dir with
    | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        List.iteri
          (fun i x ->
            let path =
              Filename.concat dir
                (Printf.sprintf "chaos-%s-seed%Ld-%d.repro"
                   (Divergence.mech_name x.Chaos.x_mech)
                   x.Chaos.x_seed i)
            in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc
                  (Chaos.repro_to_string (Chaos.repro_of_failure x)));
            Printf.eprintf "wrote %s\n" path)
          r.Chaos.rp_failures
    | None -> ());
    exit 1
  end

let chaos_replay_cmd file =
  let module Chaos = Harness.Chaos in
  match Chaos.repro_of_string (read_file file) with
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 2
  | Ok r -> (
      Printf.printf "replaying %s under %s with %d forced injection(s):\n"
        (Chaos.wspec_to_string r.Chaos.r_wspec)
        (Divergence.mech_name r.Chaos.r_mech)
        (List.length r.Chaos.r_injections);
      List.iter
        (fun j ->
          Printf.printf "  %s\n" (Sim_chaos.Chaos.describe j))
        r.Chaos.r_injections;
      match Chaos.replay ~read:read_file r with
      | Some d ->
          Printf.printf
            "reproduced: tid %d diverges at app event %d: %s\n" d.Audit.d_tid
            (d.Audit.d_index + 1) d.Audit.d_reason
      | None ->
          Printf.printf
            "did NOT reproduce: raw and %s agree under the forced set (stale \
             reproducer?)\n"
            (Divergence.mech_name r.Chaos.r_mech);
          exit 1)

(** Gate the threaded-code block engine against the interpreter: run
    every mechanism over the microbench, the signal-heavy workload and
    (optionally) a minicc program, requiring bit-identical audit logs,
    cycle clocks and state hashes with blocks on vs. off — then repeat
    under seeded chaos, where the injection streams themselves must
    also align.  Exits 1 on any mismatch. *)
let engine_check_cmd seeds prog jit =
  let module Chaos = Harness.Chaos in
  let workloads =
    [
      ("micro", Divergence.Micro { iters = 120; nr = Defs.sys_getpid });
      ("sigmicro", Divergence.Sigmicro { iters = 8 });
    ]
    @
    match prog with
    | Some path -> [ ("prog", Divergence.Prog { src = read_file path; jit }) ]
    | None -> []
  in
  let failures = ref 0 in
  let check label mech (ok, detail) =
    Printf.printf "  %-10s %-10s %s\n%!" label
      (Divergence.mech_name mech)
      detail;
    if not ok then incr failures
  in
  Printf.printf "engine identity (blocks vs. interpreter):\n";
  List.iter
    (fun (wname, w) ->
      List.iter
        (fun m -> check wname m (Divergence.engine_identical m w))
        Divergence.all_mechs)
    workloads;
  Printf.printf "engine identity under chaos (%d seeds):\n" seeds;
  let mechs = Array.of_list Divergence.all_mechs in
  for seed = 1 to seeds do
    let m = mechs.((seed - 1) mod Array.length mechs) in
    check
      (Printf.sprintf "seed %d" seed)
      m
      (Chaos.engine_identical_chaos ~seed:(Int64.of_int seed) m
         (Divergence.Micro { iters = 60; nr = Defs.sys_getpid }))
  done;
  if !failures > 0 then begin
    Printf.printf "ENGINE CHECK FAILED: %d mismatch(es)\n" !failures;
    exit 1
  end
  else Printf.printf "engine check passed: block engine is bit-identical\n"

(** {1 policy: syscall-flow-integrity} *)

let load_graph f =
  match Policy.graph_of_string ~file:f (read_file f) with
  | Ok g -> g
  | Error e ->
      prerr_endline e;
      exit 2

let policy_extract_cmd file jit out =
  let g =
    Minicc.Flowgraph.extract ~name:(Filename.basename file) ~jit
      (read_file file)
  in
  Printf.eprintf "%s" (Policy.graph_summary ~syscall_name:Defs.syscall_name g);
  let text = Policy.graph_to_string g in
  match out with
  | Some path ->
      write_out path text;
      Printf.eprintf "wrote %s\n" path
  | None -> print_string text

(* check and enforce share a runner; [mode] is the difference (check
   is report-only and exits 1 on any recorded violation, enforce
   injects -EPERM / kills and propagates the guest's exit code). *)
let policy_run ~mode file policy_file mech jit preserve_xstate =
  let g = load_graph policy_file in
  let p = Policy.create ~mode g in
  let _k, t, _log = execute ~policy:p [] file mech jit preserve_xstate in
  print_string (Policy.summary ~syscall_name:Defs.syscall_name p);
  (p, t)

let policy_check_cmd file policy_file mech jit preserve_xstate =
  let p, _t =
    policy_run ~mode:Policy.Report file policy_file mech jit preserve_xstate
  in
  if Policy.violation_count p > 0 then exit 1

let policy_enforce_cmd file policy_file mech jit preserve_xstate mode_str =
  let mode =
    match Policy.mode_of_string mode_str with
    | Some (Policy.Deny | Policy.Kill) as m -> Option.get m
    | _ ->
        Printf.eprintf
          "policy enforce: --mode must be enforce or kill (got %s)\n" mode_str;
        exit 2
  in
  let p, t = policy_run ~mode file policy_file mech jit preserve_xstate in
  ignore (p : Policy.t);
  if t.Types.exit_code <> 0 then exit t.Types.exit_code

(* One-shot: static extraction + report-mode run of the same program,
   so "does my program conform to its own compiled flow graph" is a
   single command. *)
let policy_report_cmd file mech jit preserve_xstate =
  let g =
    Minicc.Flowgraph.extract ~name:(Filename.basename file) ~jit
      (read_file file)
  in
  let p = Policy.create ~mode:Policy.Report g in
  let _k, _t, _log = execute ~policy:p [] file mech jit preserve_xstate in
  print_string (Policy.summary ~syscall_name:Defs.syscall_name p);
  if Policy.violation_count p > 0 then exit 1

let policy_attack_cmd seeds iters mechs_str report_out =
  let module Sfi = Harness.Sfi in
  let mechs =
    String.split_on_char ',' mechs_str
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun name ->
           match Divergence.mech_of_string name with
           | Some m -> m
           | None ->
               Printf.eprintf "unknown mechanism %S\n" name;
               exit 2)
    |> List.filter (fun m -> m <> Divergence.Raw)
  in
  let mechs = if mechs = [] then Sfi.interposed else mechs in
  let ok_forced, rep_forced = Sfi.attack_report ~mechs () in
  let ok_sweep, rep_sweep =
    Sfi.chaos_attack_sweep ~seeds ~iters ~mechs ()
  in
  let text = rep_forced ^ "\n" ^ rep_sweep in
  print_string text;
  (match report_out with
  | Some path ->
      write_out path text;
      Printf.eprintf "wrote %s\n" path
  | None -> ());
  if not (ok_forced && ok_sweep) then begin
    prerr_endline "POLICY ATTACK GATE FAILED: undetected escape(s)";
    exit 1
  end

let disasm_cmd file =
  let src = read_file file in
  let text, data = Minicc.Codegen.compile src in
  Printf.printf "; text at 0x%x (%d bytes), data at 0x%x (%d bytes)\n"
    text.Sim_asm.Asm.base
    (String.length text.Sim_asm.Asm.bytes)
    data.Sim_asm.Asm.base
    (String.length data.Sim_asm.Asm.bytes);
  List.iter
    (fun l -> Format.printf "%a@." Sim_isa.Disasm.pp_line l)
    (Sim_isa.Disasm.sweep ~base:text.Sim_asm.Asm.base text.Sim_asm.Asm.bytes)

let pin_cmd file =
  let src = read_file file in
  let k = Kernel.create () in
  setup_fs k;
  let t = Kernel.spawn k (Minicc.Codegen.compile_to_image src) in
  let pin = Sim_pin.Pin.attach k t in
  if not (Kernel.run_until_exit k) then
    prerr_endline "warning: program did not terminate";
  Printf.printf "register-preservation expectations across syscalls:\n";
  let show e =
    Printf.printf "  %-6s expected preserved across %s\n"
      (Sim_pin.Pin.reg_class_to_string e.Sim_pin.Pin.reg)
      (Defs.syscall_name e.Sim_pin.Pin.across_syscall)
  in
  List.iter show (Sim_pin.Pin.xstate_expectations pin);
  List.iter show (Sim_pin.Pin.gpr_expectations pin);
  Printf.printf "expects xstate preservation: %b\n"
    (Sim_pin.Pin.expects_xstate pin)

let summary_arg =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:
          "After the run, print dispatch-path counts and per-syscall \
           latency percentiles from the machine-wide event tracer.")

let out_arg =
  Arg.(
    value
    & opt string "trace.json"
    & info [ "o"; "out" ] ~docv:"PATH"
        ~doc:"Output path for the Chrome trace-event JSON.")

let no_blocks_arg =
  Arg.(
    value & flag
    & info [ "no-blocks" ]
        ~doc:
          "Force the pure per-instruction interpreter: disable the \
           threaded-code block engine for this run (equivalent to \
           SIM_NO_BLOCKS=1 in the environment).")

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Run a minicc program under an interposer")
    Term.(
      const run_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg $ summary_arg
      $ no_blocks_arg)

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a minicc program with the machine-wide tracer on and export \
          the event timeline as Chrome trace-event JSON (loadable in \
          Perfetto / chrome://tracing)")
    Term.(
      const trace_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg $ out_arg
      $ no_blocks_arg)

let report_t =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a minicc program with the machine-wide tracer on and print \
          the human-readable report: dispatch paths, rewrites and other \
          events, syscall-latency percentiles")
    Term.(
      const report_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg
      $ no_blocks_arg)

let format_arg =
  Arg.(
    value
    & opt string "plain"
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format for the counter summary: plain (perf-stat style), \
           prometheus (text exposition), or json.")

let folded_out_arg =
  Arg.(
    value
    & opt string "prof.folded"
    & info [ "o"; "out" ] ~docv:"PATH"
        ~doc:
          "Output path for the collapsed-stack profile (feed to \
           flamegraph.pl).")

let period_arg =
  Arg.(
    value & opt int 997
    & info [ "period" ] ~docv:"CYCLES"
        ~doc:
          "Sampling period in simulated cycles (a prime by default, so the \
           sampler does not alias with loop periods).")

let stat_t =
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Run a minicc program with the metrics registry attached and print \
          a perf-stat-style counter summary (or the raw Prometheus/JSON \
          exposition)")
    Term.(
      const stat_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg $ format_arg
      $ no_blocks_arg)

let profile_t =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a minicc program under the cycle-clock sampling profiler and \
          write collapsed stacks (flamegraph.pl input)")
    Term.(
      const profile_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg
      $ folded_out_arg $ period_arg $ no_blocks_arg)

let flame_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flame" ] ~docv:"PATH"
        ~doc:
          "Write the unwound call-site stacks in collapsed form \
           (comm;frames... count — feed to flamegraph.pl, same format as \
           simtrace profile).")

let sites_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"PATH"
        ~doc:"Write the full per-site ledger (counters, path mix, latency \
              percentiles, rewrite provenance) as JSON.")

let sites_limit_arg =
  Arg.(
    value & opt int 24
    & info [ "limit" ] ~docv:"N"
        ~doc:"Rows to show in the cost-sorted site table.")

let sites_t =
  Cmd.v
    (Cmd.info "sites"
       ~doc:
         "Run a minicc program with the syscall-provenance recorder \
          attached: a bounded rbp-chain unwind at every audited syscall \
          keys a per-call-site ledger (dispatch-path mix, kernel-cycle \
          percentiles, rewrite provenance).  Prints the cost-sorted site \
          table; --flame writes collapsed unwind stacks, --out the ledger \
          JSON")
    Term.(
      const sites_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg $ flame_arg
      $ sites_out_arg $ sites_limit_arg $ no_blocks_arg)

let audit_out_arg =
  Arg.(
    value
    & opt string "prog.audit"
    & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output path for the audit log.")

let checkpoint_arg =
  Arg.(
    value & opt int 64
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Take a full state-hash checkpoint every N application syscalls.")

let logfile_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG.audit")

let mechs_arg =
  Arg.(
    value
    & opt string "raw,sud,zpoline,lazypoline,seccomp,ptrace"
    & info [ "mechanisms" ] ~docv:"M1,M2,..."
        ~doc:
          "Comma-separated mechanisms to audit: raw, sud, zpoline, \
           lazypoline, seccomp, ptrace.")

let log_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-dir" ] ~docv:"DIR"
        ~doc:"Write each mechanism's serialized audit log into DIR.")

let record_t =
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a minicc program with the divergence auditor attached and \
          write the deterministic audit log: every syscall (decoded, with \
          result), signal delivery, sigreturn and scheduling point, plus \
          incremental state-hash checkpoints and the final state hash")
    Term.(
      const record_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg
      $ audit_out_arg $ checkpoint_arg)

let debug_prog_arg =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"PROG.c"
        ~doc:
          "The minicc program the log was recorded from (defaults to the \
           log's own %file header).")

let debug_mech_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "m"; "mech" ] ~docv:"MECH"
        ~doc:
          "Replay the log under this mechanism instead of the recorded one \
           (raw, sud, zpoline, lazypoline, seccomp, ptrace).  Verification \
           then compares the mechanism-neutral application stream rather \
           than full rows.")

let seek_site_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "seek-site" ] ~docv:"PC"
        ~doc:
          "Position the cursor at the first audited syscall issued from \
           call site PC (hex accepted), using the replay's provenance \
           ledger, before the REPL or script runs.")

let seek_request_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seek-request" ] ~docv:"RID"
        ~doc:
          "Position the cursor where request RID's handling begins (its \
           claiming read), using the log's .spans sidecar, before the REPL \
           or script runs.")

let script_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "script" ] ~docv:"FILE"
        ~doc:
          "Run a scripted session instead of the interactive REPL: one \
           command per line, # comments; exits 1 at the first failing \
           command or assertion (for CI).")

let debug_t =
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Time-travel debugger on a recorded audit log: seek to any app \
          syscall, step and reverse-step, continue / reverse-continue to a \
          register or memory-word watchpoint (reverse locates the change by \
          binary search over checkpoint prefixes), and inspect the replayed \
          machine (strace-decoded events, registers, memory, /proc, \
          cross-position state deltas).  Replays are verified against the \
          log as they run")
    Term.(
      const debug_cmd $ logfile_arg $ debug_prog_arg $ debug_mech_arg
      $ script_arg $ seek_request_arg $ seek_site_arg $ no_blocks_arg)

let flavour_arg =
  Arg.(
    value
    & opt flavour_conv Workloads.Webserver.Nginx_like
    & info [ "flavour" ] ~docv:"FLAVOUR"
        ~doc:"Web server flavour: nginx (sendfile) or lighttpd (read+write).")

let size_kb_arg =
  Arg.(
    value & opt int 8
    & info [ "size-kb" ] ~docv:"KB" ~doc:"Served file size in KiB.")

let conns_arg =
  Arg.(
    value & opt int 16
    & info [ "conns" ] ~docv:"N"
        ~doc:"Keepalive connections the load generator keeps in flight.")

let requests_arg =
  Arg.(
    value & opt int 2000
    & info [ "requests" ] ~docv:"N"
        ~doc:"Total requests to issue (the run self-terminates after them).")

let spans_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"PATH"
        ~doc:
          "Write the exemplar requests as Perfetto-loadable request tracks \
           (one lane per request, phase slices) to PATH.")

let spans_record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"LOG"
        ~doc:
          "Also write the audit log of the run to LOG and the exemplar \
           index to LOG.spans, ready for simtrace debug --seek-request.")

let spans_t =
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Run the wrk-driven web-server macrobench with the request-flow \
          span recorder attached and print the causal-phase attribution: \
          machine-wide phase split, per-syscall kernel cycles, request \
          latency percentiles and the slowest-request exemplars with their \
          per-phase breakdown and audit event windows.  Optionally exports \
          Perfetto request tracks and records a debuggable audit log + \
          spans sidecar")
    Term.(
      const spans_cmd $ mech_arg $ flavour_arg $ size_kb_arg $ conns_arg
      $ requests_arg $ spans_out_arg $ spans_record_arg $ no_blocks_arg)

let replay_t =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run the workload a recorded audit log came from and verify the \
          streams and state hashes are bit-identical; exits 1 on the first \
          divergent line")
    Term.(const replay_cmd $ logfile_arg)

let diff_t =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Run the same program under each mechanism, diff the audit streams \
          modulo mechanism-private events, and on mismatch bisect to the \
          first divergent syscall and dump a side-by-side register/page \
          delta; exits 1 on any divergence")
    Term.(const diff_cmd $ file_arg $ mechs_arg $ jit_arg $ log_dir_arg)

let seeds_arg =
  Arg.(
    value & opt int 10
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Number of chaos seeds to sweep (seeds 1..N, deterministic).")

let chaos_prog_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"PROG.c"
        ~doc:
          "Optional minicc program to include as a chaos workload (with \
           --jit, through the JIT driver).")

let minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:
          "On divergence, shrink the injection set to a minimal forced \
           reproducer by greedy bisection.")

let clobber_arg =
  Arg.(
    value & opt int 0
    & info [ "clobber" ] ~docv:"RATE"
        ~doc:
          "Per-65536 rate of callee-saved register clobbers at hook \
           interceptions — a deliberate interposer bug the divergence gate \
           must catch (self-test; 0 disables).")

let no_sigmicro_arg =
  Arg.(
    value & flag
    & info [ "no-sigmicro" ]
        ~doc:"Skip the built-in signal-handler-rich sigmicro workload.")

let repro_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-dir" ] ~docv:"DIR"
        ~doc:"Write a replayable .repro file per divergence into DIR.")

let chaos_t =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded adversarial sweep: run workloads under each mechanism with \
          deterministic fault injection (transient errnos, async signals at \
          fuzzed boundaries, preemption biased into interposer hot windows) \
          and fail on any application-stream divergence from an identically \
          fuzzed raw run; exits 1 and dumps minimal reproducers on failure")
    Term.(
      const chaos_cmd $ seeds_arg $ mechs_arg $ chaos_prog_arg $ jit_arg
      $ minimize_arg $ clobber_arg $ no_sigmicro_arg $ repro_dir_arg)

let chaos_replay_t =
  Cmd.v
    (Cmd.info "chaos-replay"
       ~doc:
         "Replay a % simtrace-chaos/1 reproducer: force its injection set \
          into a raw and an interposed run and report whether the recorded \
          divergence reproduces; exits 1 if it does not")
    Term.(
      const chaos_replay_cmd
      $ Arg.(
          required & pos 0 (some file) None & info [] ~docv:"FILE.repro"))

let disasm_t =
  Cmd.v (Cmd.info "disasm" ~doc:"Compile a minicc program and disassemble it")
    Term.(const disasm_cmd $ file_arg)

let engine_check_t =
  Cmd.v
    (Cmd.info "engine-check"
       ~doc:
         "Verify the threaded-code block engine is bit-identical to the \
          per-instruction interpreter: audit logs, cycle clocks and state \
          hashes must match across every mechanism, plus seeded chaos runs \
          where the injection streams must also align; exits 1 on any \
          mismatch")
    Term.(const engine_check_cmd $ seeds_arg $ chaos_prog_arg $ jit_arg)

let pin_t =
  Cmd.v
    (Cmd.info "pin"
       ~doc:"Run the Pin-style register-preservation analysis on a program")
    Term.(const pin_cmd $ file_arg)

let policy_file_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "policy" ] ~docv:"FILE"
        ~doc:"The % simtrace-policy/1 flow-graph artifact to enforce.")

let policy_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"PATH"
        ~doc:"Write the policy artifact to PATH instead of stdout.")

let policy_mode_arg =
  Arg.(
    value & opt string "enforce"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Verdict on violation: enforce (inject -EPERM) or kill \
           (SIGSYS-style task-group kill).")

let attack_iters_arg =
  Arg.(
    value & opt int 12
    & info [ "iters" ] ~docv:"N"
        ~doc:"Syscall-loop iterations of the attack workload.")

let attack_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"PATH"
        ~doc:"Also write the detection report to PATH (for CI artifacts).")

let policy_t =
  let extract_t =
    Cmd.v
      (Cmd.info "extract"
         ~doc:
           "Compile a minicc program (with --jit, through the JIT driver) \
            and emit its syscall-flow graph — nodes with call-site PCs, \
            successor edges, per-compartment (pkey) syscall sets — as a \
            versioned % simtrace-policy/1 artifact")
      Term.(const policy_extract_cmd $ file_arg $ jit_arg $ policy_out_arg)
  in
  let check_t =
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Run a program under a report-only policy: every dispatch is \
            checked against the flow graph but nothing is denied; exits 1 \
            if any violation was recorded")
      Term.(
        const policy_check_cmd $ file_arg $ policy_file_arg $ mech_arg
        $ jit_arg $ xstate_arg)
  in
  let enforce_t =
    Cmd.v
      (Cmd.info "enforce"
         ~doc:
           "Run a program with the policy enforced in the kernel's \
            dispatcher: out-of-graph syscalls are denied with -EPERM \
            (--mode enforce) or kill the task group (--mode kill)")
      Term.(
        const policy_enforce_cmd $ file_arg $ policy_file_arg $ mech_arg
        $ jit_arg $ xstate_arg $ policy_mode_arg)
  in
  let report_t =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Extract a program's flow graph and immediately verify the \
            program against it in report mode — one-shot conformance; \
            exits 1 on any violation")
      Term.(
        const policy_report_cmd $ file_arg $ mech_arg $ jit_arg $ xstate_arg)
  in
  let attack_t =
    Cmd.v
      (Cmd.info "attack"
         ~doc:
           "Adversarial detection gate: force a register clobber per \
            clobber class and mechanism, then run a seeded clobber-fuzz \
            sweep under an enforcing policy; every chaos-induced \
            out-of-graph escape must be flagged by the engine at its exact \
            syscall index.  Exits 1 on any undetected escape")
      Term.(
        const policy_attack_cmd $ seeds_arg $ attack_iters_arg $ mechs_arg
        $ attack_report_arg)
  in
  Cmd.group
    (Cmd.info "policy"
       ~doc:
         "Syscall-flow-integrity: extract minicc flow graphs, check or \
          enforce them in the dispatcher, and validate detection against \
          the chaos attacker")
    [ extract_t; check_t; enforce_t; report_t; attack_t ]

let () =
  let info =
    Cmd.info "simtrace" ~version:"1.0"
      ~doc:"strace/objdump/pin for the lazypoline simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_t; trace_t; report_t; stat_t; profile_t; sites_t; record_t;
            replay_t; debug_t; spans_t; diff_t; chaos_t; chaos_replay_t;
            engine_check_t; disasm_t; pin_t; policy_t;
          ]))
