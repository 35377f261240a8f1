(** The /proc synthetic filesystem: host-side reads through the VFS,
    the maps-vs-MMU acceptance check, and the guest-visible view — a
    compiled C program reading its own [/proc/self/interposer] and
    asserting the fast-path count grew after its syscall sites were
    rewritten. *)

open Sim_kernel

let contains ~needle hay =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read_proc k path =
  match Vfs.read_file k.Types.vfs path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s: error %d" path e

let spawn_prog k src = Kernel.spawn k (Minicc.Codegen.compile_to_image src)

let src_trivial = "long main() { return syscall(39) > 0; }"

(* --- host-side reads ----------------------------------------------- *)

let test_status () =
  let k = Kernel.create () in
  let t = spawn_prog k src_trivial in
  let s = read_proc k (Printf.sprintf "/proc/%d/status" t.Types.tid) in
  Alcotest.(check bool) "Name line" true (contains ~needle:"Name:" s);
  Alcotest.(check bool) "Pid line" true
    (contains ~needle:(Printf.sprintf "Pid:\t%d" t.Types.tid) s);
  Alcotest.(check bool) "runnable" true (contains ~needle:"R (running)" s);
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  let s = read_proc k (Printf.sprintf "/proc/%d/status" t.Types.tid) in
  Alcotest.(check bool) "zombie after exit" true
    (contains ~needle:"Z (zombie)" s)

let test_listing () =
  let k = Kernel.create () in
  let t = spawn_prog k src_trivial in
  (match Vfs.listdir k.Types.vfs ~cwd:"/" "/proc" with
  | Ok names ->
      Alcotest.(check bool) "metrics listed" true (List.mem "metrics" names);
      Alcotest.(check bool) "pid listed" true
        (List.mem (string_of_int t.Types.tid) names)
  | Error e -> Alcotest.failf "listdir /proc: error %d" e);
  match
    Vfs.listdir k.Types.vfs ~cwd:"/"
      (Printf.sprintf "/proc/%d" t.Types.tid)
  with
  | Ok names ->
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " listed") true (List.mem n names))
        [ "status"; "maps"; "interposer" ]
  | Error e -> Alcotest.failf "listdir pid dir: error %d" e

let test_read_only () =
  let k = Kernel.create () in
  let t = spawn_prog k src_trivial in
  ignore t;
  (match
     Vfs.openf k.Types.vfs ~cwd:"/" "/proc/metrics" ~flags:Defs.o_wronly
       ~mode:0
   with
  | Error e -> Alcotest.(check int) "write open refused" Defs.eacces e
  | Ok _ -> Alcotest.fail "write open of a /proc node succeeded");
  match Vfs.add_file k.Types.vfs "/proc/evil" "x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "created a file under /proc"

let test_nonexistent_pid () =
  let k = Kernel.create () in
  ignore (spawn_prog k src_trivial);
  match Vfs.read_file k.Types.vfs "/proc/9999/status" with
  | Error e -> Alcotest.(check int) "enoent" Defs.enoent e
  | Ok _ -> Alcotest.fail "read status of a nonexistent pid"

(* Acceptance: /proc/<pid>/maps must match the simulated MMU's mapping
   table exactly — parse every line back and compare field by field. *)
let test_maps_exact () =
  let k = Kernel.create () in
  let t = spawn_prog k src_trivial in
  let text = read_proc k (Printf.sprintf "/proc/%d/maps" t.Types.tid) in
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  let parsed =
    List.map
      (fun line ->
        Scanf.sscanf line "%x-%x %c%c%c%c" (fun lo hi r w x _p ->
            (lo, hi, r, w, x)))
      lines
  in
  let expected = Sim_mem.Mem.regions t.Types.mem in
  Alcotest.(check int) "one line per region" (List.length expected)
    (List.length parsed);
  List.iter2
    (fun (addr, len, perm) (lo, hi, r, w, x) ->
      Alcotest.(check int) "start" addr lo;
      Alcotest.(check int) "end" (addr + len) hi;
      let flag bit c yes = if perm land bit <> 0 then c = yes else c = '-' in
      Alcotest.(check bool) "r flag" true (flag Sim_mem.Mem.p_r r 'r');
      Alcotest.(check bool) "w flag" true (flag Sim_mem.Mem.p_w w 'w');
      Alcotest.(check bool) "x flag" true (flag Sim_mem.Mem.p_x x 'x'))
    expected parsed

let test_interposer_and_metrics_nodes () =
  let k = Kernel.create () in
  let m = Kmetrics.create () in
  Kernel.attach_metrics k m;
  let t = spawn_prog k src_trivial in
  ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ()));
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  let s = read_proc k (Printf.sprintf "/proc/%d/interposer" t.Types.tid) in
  Alcotest.(check bool) "sud on" true (contains ~needle:"sud:\ton" s);
  Alcotest.(check bool) "registry attached" true
    (contains ~needle:"metrics:\tattached" s);
  Alcotest.(check bool) "rewrites reported" true
    (contains
       ~needle:
         (Printf.sprintf "rewrites:\t%d"
            (Option.value ~default:(-1)
               (Sim_metrics.Metrics.find m.Kmetrics.registry
                  "sim_rewrites_total")))
       s);
  let p = read_proc k "/proc/metrics" in
  Alcotest.(check bool) "prometheus exposition" true
    (contains ~needle:"# TYPE sim_syscalls_total counter" p);
  (* the block-engine probes flow through the same registry *)
  Alcotest.(check bool) "block counters exposed" true
    (contains ~needle:"sim_block_hits_total" p
    && contains ~needle:"sim_blocks_compiled_total" p);
  (* and the snapshot semantics: the text equals a direct scrape *)
  Alcotest.(check string) "matches direct scrape" (Kmetrics.prometheus m) p

let test_metrics_node_detached () =
  let k = Kernel.create () in
  ignore (spawn_prog k src_trivial);
  let p = read_proc k "/proc/metrics" in
  Alcotest.(check bool) "placeholder text" true
    (contains ~needle:"not attached" p)

(* --- guest-visible /proc (satellite): fast path grows -------------- *)

let guest_src =
  {|long main() {
  char buf[64];
  long fd = syscall(2, "/proc/self/interposer", 0, 0);
  long n = syscall(0, fd, buf, 64);
  while (n > 0) { syscall(1, 1, buf, n); n = syscall(0, fd, buf, 64); }
  syscall(3, fd);
  syscall(1, 1, "=MID=", 5);
  long acc = 0;
  for (long i = 0; i < 6; i = i + 1) { acc = acc + syscall(186); }
  fd = syscall(2, "/proc/self/interposer", 0, 0);
  n = syscall(0, fd, buf, 64);
  while (n > 0) { syscall(1, 1, buf, n); n = syscall(0, fd, buf, 64); }
  syscall(3, fd);
  syscall(1, 1, "=MAPS=", 6);
  fd = syscall(2, "/proc/self/maps", 0, 0);
  n = syscall(0, fd, buf, 64);
  while (n > 0) { syscall(1, 1, buf, n); n = syscall(0, fd, buf, 64); }
  syscall(3, fd);
  return acc & 7;
}|}

let fast_path_of snapshot =
  let rec find = function
    | [] -> Alcotest.fail "no fast_path line in interposer snapshot"
    | line :: rest -> (
        match Scanf.sscanf_opt line "fast_path:\t%d" (fun n -> n) with
        | Some n -> n
        | None -> find rest)
  in
  find (String.split_on_char '\n' snapshot)

let test_guest_sees_fast_path_grow () =
  let k = Kernel.create () in
  Kernel.attach_metrics k (Kmetrics.create ());
  let t = spawn_prog k guest_src in
  ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ()));
  Buffer.clear Kernel.console;
  Alcotest.(check bool) "terminated" true
    (Kernel.run_until_exit ~max_slices:600_000 k);
  let out = Buffer.contents Kernel.console in
  let before, after_mid =
    match String.index_opt out '=' with
    | None -> Alcotest.fail "no =MID= marker in guest output"
    | Some _ ->
        let mid = "=MID=" in
        let rec split i =
          if i + String.length mid > String.length out then
            Alcotest.fail "no =MID= marker in guest output"
          else if String.sub out i (String.length mid) = mid then
            ( String.sub out 0 i,
              String.sub out
                (i + String.length mid)
                (String.length out - i - String.length mid) )
          else split (i + 1)
        in
        split 0
  in
  let second, maps_dump =
    let mk = "=MAPS=" in
    let rec split i =
      if i + String.length mk > String.length after_mid then
        Alcotest.fail "no =MAPS= marker in guest output"
      else if String.sub after_mid i (String.length mk) = mk then
        ( String.sub after_mid 0 i,
          String.sub after_mid
            (i + String.length mk)
            (String.length after_mid - i - String.length mk) )
      else split (i + 1)
    in
    split 0
  in
  let f1 = fast_path_of before and f2 = fast_path_of second in
  Alcotest.(check bool)
    (Printf.sprintf "fast path grew (%d -> %d)" f1 f2)
    true (f2 > f1);
  Alcotest.(check bool) "guest sees sud on" true
    (contains ~needle:"sud:\ton" before);
  (* the maps the guest read must include its own code segment *)
  (match Sim_mem.Mem.regions t.Types.mem with
  | (addr, len, _) :: _ ->
      let line_start = Printf.sprintf "%08x-" addr in
      ignore len;
      Alcotest.(check bool) "guest maps shows first region" true
        (contains ~needle:line_start maps_dump)
  | [] -> Alcotest.fail "no mapped regions")

(* --- observation-integrity probes (gated macrobench) --------------- *)

(* Scrape one sample's value out of a Prometheus exposition. *)
let metric_value text name =
  let rec find = function
    | [] -> Alcotest.failf "no %s sample in /proc/metrics" name
    | line :: rest -> (
        match
          Scanf.sscanf_opt line "%s %d" (fun n v ->
              if n = name then Some v else None)
        with
        | Some (Some v) -> v
        | _ -> find rest)
  in
  find (String.split_on_char '\n' text)

let test_observation_integrity_probes () =
  (* The gated macrobench: a bounded wrk run with every observer
     attached — tracer, span recorder, metrics.  The integrity probes
     must expose the drop counters, and all of them must read zero:
     a lossy observer means the attribution cannot be trusted. *)
  let k = Kernel.create () in
  Kernel.attach_metrics k (Kmetrics.create ());
  let tr = Sim_trace.Tracer.create ~ncpus:1 () in
  Kernel.observe k (Observers.tracer tr);
  let o = Sim_obs.Obs.create ~ncpus:1 () in
  Kernel.observe k (Observers.spans o);
  let file = "/www/f" in
  let requests = 200 in
  let t =
    Workloads.Webserver.boot_into k ~port:80 ~exit_after:requests
      ~flavour:Workloads.Webserver.Nginx_like ~workers:1
      ~files:[ (file, String.make 1024 'x') ]
      ()
  in
  ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ()));
  Workloads.Webserver.wait_listening k ~port:80;
  let g =
    Workloads.Wrk.attach ~max_requests:requests k ~port:80 ~conns:4 ~file
      ~file_size:1024
  in
  Alcotest.(check bool) "server exited" true
    (Kernel.run_until_exit ~max_slices:600_000 k);
  Alcotest.(check int) "all requests served" requests
    g.Workloads.Wrk.completed;
  let p = read_proc k "/proc/metrics" in
  (* the per-CPU ring counters are exposed alongside the machine total *)
  Alcotest.(check bool) "per-cpu ring probe exposed" true
    (contains ~needle:"sim_trace_ring_dropped_cpu0" p);
  Alcotest.(check bool) "reservoir evictions probe exposed" true
    (contains ~needle:"sim_obs_reservoir_evictions_total" p);
  (* gates: every observer kept up *)
  Alcotest.(check int) "no trace-ring drops" 0
    (metric_value p "sim_trace_ring_dropped_total");
  Alcotest.(check int) "no drops on cpu0 either" 0
    (metric_value p "sim_trace_ring_dropped_cpu0");
  Alcotest.(check int) "no span in-flight overflow" 0
    (metric_value p "sim_obs_inflight_overflow_total");
  Alcotest.(check int) "every request issued counted" requests
    (metric_value p "sim_obs_requests_issued_total");
  Alcotest.(check int) "every request completed counted" requests
    (metric_value p "sim_obs_requests_completed_total")

let test_integrity_probes_detached () =
  (* Without observers the probes still exist and read zero (scrape
     thunks close over the kernel, not over an instance). *)
  let k = Kernel.create () in
  Kernel.attach_metrics k (Kmetrics.create ());
  ignore (spawn_prog k src_trivial);
  Alcotest.(check bool) "terminated" true (Kernel.run_until_exit k);
  let p = read_proc k "/proc/metrics" in
  Alcotest.(check int) "ring drops read zero" 0
    (metric_value p "sim_trace_ring_dropped_total");
  Alcotest.(check int) "span overflow reads zero" 0
    (metric_value p "sim_obs_inflight_overflow_total");
  Alcotest.(check int) "issued reads zero" 0
    (metric_value p "sim_obs_requests_issued_total")

let tests =
  [
    Alcotest.test_case "status node" `Quick test_status;
    Alcotest.test_case "directory listing" `Quick test_listing;
    Alcotest.test_case "read-only mount" `Quick test_read_only;
    Alcotest.test_case "nonexistent pid" `Quick test_nonexistent_pid;
    Alcotest.test_case "maps matches MMU exactly" `Quick test_maps_exact;
    Alcotest.test_case "interposer + metrics nodes" `Quick
      test_interposer_and_metrics_nodes;
    Alcotest.test_case "metrics node without registry" `Quick
      test_metrics_node_detached;
    Alcotest.test_case "guest reads /proc/self, fast path grows" `Quick
      test_guest_sees_fast_path_grow;
    Alcotest.test_case "observation-integrity probes (gated macrobench)"
      `Quick test_observation_integrity_probes;
    Alcotest.test_case "integrity probes read zero when detached" `Quick
      test_integrity_probes_detached;
  ]
