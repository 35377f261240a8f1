(** Host-cost benchmark of the simulator.

    Runs one named workload for a fixed host time on one OCaml domain
    and prints what the simulator costs the host: set-up time,
    application syscalls and work units completed per host second,
    host time per scheduling slice, minor-heap words per syscall and
    the peak heap.  Simulated results are checked along the way
    (termination, outputs, bit-identical cycle counts) and never
    reported as metrics.  With [--trace 1] the same workload runs once
    untraced and once with spans recorded around every call into a
    layer, and the per-layer table is printed instead.

    See README.md in this directory for why each workload exists and
    which layer metric should move which end-to-end metric. *)

open Sim_kernel
module Mb = Workloads.Microbench_prog
module Icache = Sim_cpu.Icache

let now_ns = Spans.now_ns

(* ------------------------------------------------------------------ *)
(* Slice samples                                                       *)

(* One round's slice times, kept off the OCaml heap so they do not
   show up in [peak_heap_mb].  Percentiles are taken per round, so one
   round's GC pause or host hiccup cannot set the tail. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout (1 lsl 17); n = 0 }
  let reset s = s.n <- 0

  let add s v =
    if s.n = Array1.dim s.a then begin
      let b = Array1.create int c_layout (2 * s.n) in
      Array1.blit s.a (Array1.sub b 0 s.n);
      s.a <- b
    end;
    Array1.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  (* Linear interpolation between closest ranks, as Stats.percentile. *)
  let percentiles s ps =
    let m = s.n in
    let a = Array.init m (fun i -> Array1.get s.a i) in
    Array.sort compare a;
    List.map
      (fun p ->
        if m = 0 then nan
        else
          let rank = p /. 100.0 *. float_of_int (m - 1) in
          let lo = int_of_float (Float.floor rank) in
          let hi = int_of_float (Float.ceil rank) in
          let f = rank -. float_of_int lo in
          float_of_int a.(lo) +. (f *. float_of_int (a.(hi) - a.(lo))))
      ps
end

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)

type round = {
  setup_ns : float;  (** scaled to the reference memory speed *)
  timed_ns : float;  (** likewise *)
  raw_setup_ns : int;
  raw_timed_ns : int;
  syscalls : int;
  units : int;
  words : float;
  slices : int;
  slice_p50_ns : float;
  slice_p99_ns : float;
  probe_speed : float;  (** [Probe.ref_ns] / mean probe time of the round *)
}

(* A record of floats only is stored flat, so assigning its field
   allocates nothing: the probe updates it inside timed phases. *)
type speed = { mutable now : float }

(* The last few probe times; their median is the current speed, so
   one probe that an interrupt lands on does not rescale the slices
   after it. *)
let recent_probes = 5

type ctx = {
  mutable tr : Spans.t option;  (** [Some] during the traced phase *)
  samples : Samples.t;
  refs : (string, int64) Hashtbl.t;
      (** simulated-cycle signature per unit key, first sighting *)
  lay : (string, float) Hashtbl.t;  (** per-layer sums, traced phase *)
  mutable unit_id : int;
  (* current round *)
  mutable r_setup : int;
  mutable r_timed : int;
  mutable r_setup_n : float;
  mutable r_timed_n : float;
  mutable r_sys : int;
  mutable r_units : int;
  mutable r_words : float;
  mutable r_probe_ns : int;
  mutable r_probes : int;
  mutable probe_ns : int;  (** all probe time so far *)
  mutable probes : int;
  mutable last_probe : int;
  speed : speed;  (** [Probe.ref_ns] / median of the recent probe times *)
  recent : int array;  (** ring of the last [recent_probes] probe times *)
  sorted : int array;  (** scratch for their median *)
  (* whole run *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let new_ctx () =
  {
    tr = None;
    samples = Samples.create ();
    refs = Hashtbl.create 64;
    lay = Hashtbl.create 64;
    unit_id = 0;
    r_setup = 0;
    r_timed = 0;
    r_setup_n = 0.0;
    r_timed_n = 0.0;
    r_sys = 0;
    r_units = 0;
    r_words = 0.0;
    r_probe_ns = 0;
    r_probes = 0;
    probe_ns = 0;
    probes = 0;
    last_probe = 0;
    speed = { now = 1.0 };
    recent = Array.make recent_probes (int_of_float Probe.ref_ns);
    sorted = Array.make recent_probes 0;
    attempted = 0;
    failed = 0;
    failures = [];
  }

let fail c fmt =
  Printf.ksprintf
    (fun s ->
      if List.length c.failures < 20 then c.failures <- s :: c.failures)
    fmt

let lay_add c name v =
  if c.tr <> None then
    Hashtbl.replace c.lay name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt c.lay name))

let lay_get c name = Option.value ~default:0.0 (Hashtbl.find_opt c.lay name)

let span c name f =
  match c.tr with None -> f () | Some s -> Spans.wrap s (Spans.id s name) f

let next_unit c =
  c.unit_id <- c.unit_id + 1;
  match c.tr with Some s -> Spans.set_unit s c.unit_id | None -> ()

(** Run the memory-speed probe now. *)
let probe c =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (Probe.run ()));
  let t1 = now_ns () in
  c.r_probe_ns <- c.r_probe_ns + (t1 - t0);
  c.r_probes <- c.r_probes + 1;
  c.probe_ns <- c.probe_ns + (t1 - t0);
  c.probes <- c.probes + 1;
  c.recent.(c.probes mod recent_probes) <- t1 - t0;
  Array.blit c.recent 0 c.sorted 0 recent_probes;
  (* insertion sort: allocation-free *)
  for i = 1 to recent_probes - 1 do
    let x = c.sorted.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && c.sorted.(!j) > x do
      c.sorted.(!j + 1) <- c.sorted.(!j);
      decr j
    done;
    c.sorted.(!j + 1) <- x
  done;
  c.speed.now <- Probe.ref_ns /. float_of_int c.sorted.(recent_probes / 2);
  c.last_probe <- t1

let probe_every_ns = 5_000_000

(** Host ns spent in [f] with probes excluded: raw, and scaled to the
    reference memory speed by the mean speed of the probes that ran
    during [f] (the current speed if none did). *)
let measure c f =
  let p0 = c.probe_ns and n0 = c.probes in
  let t0 = now_ns () in
  let v = f () in
  let raw = now_ns () - t0 - (c.probe_ns - p0) in
  let speed =
    if c.probes = n0 then c.speed.now
    else Probe.ref_ns *. float_of_int (c.probes - n0) /. float_of_int (c.probe_ns - p0)
  in
  (v, raw, float_of_int raw *. speed)

(** Host time before the timed phase of a round. *)
let setup c f =
  let v, raw, norm = measure c f in
  c.r_setup <- c.r_setup + raw;
  c.r_setup_n <- c.r_setup_n +. norm;
  v

(** Host time and minor-heap words of the timed phase (probes
    allocate nothing). *)
let timed c f =
  let v, raw, norm =
    measure c (fun () ->
        let w0 = Gc.minor_words () in
        let v = f () in
        c.r_words <- c.r_words +. (Gc.minor_words () -. w0);
        v)
  in
  c.r_timed <- c.r_timed + raw;
  c.r_timed_n <- c.r_timed_n +. norm;
  v

(** Check a unit's simulated cycle count against its first sighting
    (the warm-up round or the untraced phase). *)
let check_sig c key cycles =
  match Hashtbl.find_opt c.refs key with
  | None ->
      Hashtbl.replace c.refs key cycles;
      true
  | Some r when Int64.equal r cycles -> true
  | Some r ->
      fail c "%s: simulated cycles %Ld, first run %Ld" key cycles r;
      false

(* ------------------------------------------------------------------ *)
(* Layer hooks                                                         *)

(* Module-level counters of the cpu and isa layers, read as deltas
   around each unit. *)
let global_names =
  [|
    "cpu.insns"; "cpu.icache_hits"; "isa.decodes"; "cpu.icache_invalidations";
    "cpu.blocks_compiled"; "cpu.block_entries"; "cpu.block_insns";
    "cpu.block_exits.end"; "cpu.block_exits.budget"; "cpu.block_exits.smc";
    "cpu.block_exits.fault"; "cpu.block_exits.preempt";
    "cpu.block_fallbacks.cold"; "cpu.block_fallbacks.uncompilable";
    "cpu.block_fallbacks.hooked";
  |]

let globals () =
  Icache.
    [|
      !Sim_cpu.Cpu.retired; !g_hits; !g_misses; !g_invalidations;
      !g_blocks_compiled; !g_block_hits; !g_block_insns; !g_bexit_end;
      !g_bexit_budget; !g_bexit_smc; !g_bexit_fault; !g_bexit_preempt;
      !g_block_fb_cold; !g_block_fb_uncompilable; !g_block_fb_hooked;
    |]

(** A fresh kernel; in the traced phase with a metrics registry. *)
let new_kernel c =
  let k = Kernel.create () in
  Buffer.clear Kernel.console;
  if c.tr <> None then Kernel.attach_metrics k (Kmetrics.create ());
  k

(** Count completed application syscalls through the kernel's strace
    slot.  Every application syscall completes exactly one dispatch
    under each mechanism: directly, through the interposer's replaying
    stub, or after a ptrace stop.  Excluded are retries of a blocked
    dispatch and [rt_sigreturn] (the workloads install no signal
    handlers of their own, so every sigreturn is interposer plumbing);
    interposer-internal [Kernel.kernel_syscall]s never reach the slot.
    The record workload checks this count against the audit
    recorder's application-event count.  In the traced phase the same
    slot also measures epoll_wait batching. *)
let count_syscalls c (k : Types.kernel) =
  let n = ref 0 in
  let blocked = Int64.of_int (-512) in
  k.Types.strace <-
    Some
      (fun t nr v ->
        if nr <> Defs.sys_rt_sigreturn && not (Int64.equal v blocked) then begin
          incr n;
          if nr = Defs.sys_epoll_wait && c.tr <> None && Int64.compare v 0L >= 0
          then begin
            let reg r = Int64.to_int (Sim_cpu.Cpu.peek_reg t.Types.ctx r) in
            lay_add c "kernel.epoll_waits" 1.0;
            lay_add c "kernel.epoll_events" (Int64.to_float v);
            lay_add c "kernel.epoll_maxevents" (float_of_int (reg Sim_isa.Isa.rdx));
            match Kernel.get_fd t (reg Sim_isa.Isa.rdi) with
            | Some { Types.kind = Types.Kepoll ep; _ } ->
                lay_add c "kernel.epoll_interest"
                  (float_of_int (Hashtbl.length ep.Types.interest))
            | _ -> ()
          end
        end);
  n

(** After an interposer is installed: time its hypercalls and ptrace
    monitor callbacks by wrapping the kernel's public slots. *)
let wrap_interposer c (k : Types.kernel) (t : Types.task) =
  match c.tr with
  | None -> ()
  | Some s ->
      let hid = Spans.id s "core.hypercall" in
      Hashtbl.filter_map_inplace
        (fun _ f -> Some (fun k t -> Spans.wrap s hid (fun () -> f k t)))
        k.Types.hypercalls;
      (match t.Types.monitor with
      | Some m ->
          let mid = Spans.id s "baselines.ptrace_monitor" in
          let en = m.Types.on_entry and ex = m.Types.on_exit in
          m.Types.on_entry <- (fun pv -> Spans.wrap s mid (fun () -> en pv));
          m.Types.on_exit <- (fun pv -> Spans.wrap s mid (fun () -> ex pv))
      | None -> ())

let spawn c k ?comm img = span c "loader.spawn" (fun () -> Kernel.spawn k ?comm img)
let install c f = span c "core.install" f

let compile c ~jit src =
  lay_add c "minicc.programs" 1.0;
  span c "minicc.compile" (fun () ->
      if jit then Minicc.Jit.driver_image src
      else Minicc.Codegen.compile_to_image src)

(** Slices after which [drive] gives up on a unit as not terminating. *)
let max_slices = 2_000_000

(** Step [k] slice by slice until [until ()] holds; false if it does
    not within [max_slices].  Timed slices feed the slice-time
    percentiles. *)
let drive ?(sample = true) c (k : Types.kernel) ~until =
  let sid = match c.tr with Some s -> Spans.id s "kernel.run_slice" | None -> 0 in
  let rec go n =
    if until () then true
    else if n = 0 then false
    else begin
      let t0 = now_ns () in
      (match c.tr with
      | None -> Kernel.run_slice k
      | Some s -> Spans.wrap s sid (fun () -> Kernel.run_slice k));
      let t1 = now_ns () in
      if sample then
        Samples.add c.samples (int_of_float (float_of_int (t1 - t0) *. c.speed.now));
      if t1 - c.last_probe > probe_every_ns then probe c;
      lay_add c "kernel.slices" 1.0;
      go (n - 1)
    end
  in
  go max_slices

let all_exited k () = Kernel.all_exited k

(** Per-unit layer bookkeeping in the traced phase: global-counter
    deltas and the kernel's metrics registry. *)
let with_layers c (k_of : unit -> Types.kernel option) f =
  match c.tr with
  | None -> f ()
  | Some _ ->
      let g0 = globals () in
      let v = f () in
      let g1 = globals () in
      Array.iteri
        (fun i name -> lay_add c name (float_of_int (g1.(i) - g0.(i))))
        global_names;
      lay_add c "units" 1.0;
      (match k_of () with
      | Some { Types.metrics = Some m; _ } ->
          let add name r = lay_add c name (float_of_int !r) in
          List.iter
            (fun p ->
              lay_add c
                ("kernel.syscalls." ^ Sim_trace.Event.path_name p)
                (float_of_int (Kmetrics.path_count m p)))
            Sim_trace.Event.all_paths;
          add "kernel.signal_deliveries" m.Kmetrics.signal_deliveries;
          add "kernel.sigreturns" m.Kmetrics.sigreturns;
          add "kernel.context_switches" m.Kmetrics.ctx_switches;
          add "core.rewrites" m.Kmetrics.rewrites;
          add "core.selector_flips" m.Kmetrics.selector_flips;
          add "baselines.sweep_bytes" m.Kmetrics.sweep_bytes;
          add "kernel.mmap_bytes" m.Kmetrics.mmap_bytes;
          add "kernel.mprotect_bytes" m.Kmetrics.mprotect_bytes;
          add "kernel.wx_flips" m.Kmetrics.wx_flips
      | _ -> ());
      v

(* ------------------------------------------------------------------ *)
(* micro and record: the Table II loop under six mechanisms            *)

let micro_iters = 20_000

(* Overhead over native as EXPERIMENTS.md records it for Table II. *)
let micro_mechs =
  Mb.
    [
      (Native, 1.0); (Zpoline, 1.22); (Lazypoline_full, 2.40); (Sud, 20.9);
      (Seccomp_user, 21.2); (Ptrace, 30.5);
    ]

(** Mechanism order of a round: the only input the seed varies, since
    the loop itself is the paper's. *)
let micro_order seed =
  let a = Array.of_list (List.map fst micro_mechs) in
  let rng = Random.State.make [| seed; 0x3c |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

type sub = {
  mech : Mb.config;
  k : Types.kernel;
  t : Types.task;
  nsys : int ref;
  audit : Sim_audit.Audit.t option;
}

let boot_micro c ~record mech =
  next_unit c;
  let k = new_kernel c in
  let blob =
    Sim_asm.Asm.assemble ~base:Loader.code_base
      (Mb.bench_items ~iters:micro_iters ~nr:500)
  in
  let img =
    Loader.image ~entry:(Sim_asm.Asm.symbol blob "start") ~text:blob ()
  in
  let t = spawn c k img in
  let site = Sim_asm.Asm.symbol blob "site" in
  let hook = Lazypoline.Hook.dummy () in
  install c (fun () ->
      match mech with
      | Mb.Native -> ()
      | Mb.Zpoline -> ignore (Baselines.Zpoline.install k t hook)
      | Mb.Lazypoline_full ->
          let st = Lazypoline.install ~preserve_xstate:true k t hook in
          Lazypoline.rewrite_site st t ~addr:site
      | Mb.Sud -> ignore (Baselines.Sud_interposer.install k t hook)
      | Mb.Seccomp_user -> ignore (Baselines.Seccomp_user.install k t hook)
      | Mb.Ptrace -> ignore (Baselines.Ptrace_interposer.install k t hook)
      | _ -> invalid_arg "boot_micro");
  wrap_interposer c k t;
  let audit =
    if record then begin
      let a = Sim_audit.Audit.create ~checkpoint_every:64 () in
      Kernel.attach_audit k a;
      Some a
    end
    else None
  in
  { mech; k; t; nsys = count_syscalls c k; audit }

let run_sub c s =
  c.attempted <- c.attempted + 1;
  let name = Mb.config_name s.mech in
  let ok =
    with_layers c (fun () -> Some s.k) (fun () ->
        timed c (fun () -> drive c s.k ~until:(all_exited s.k)))
  in
  c.r_sys <- c.r_sys + !(s.nsys);
  c.r_units <- c.r_units + micro_iters;
  let ok =
    if not ok then (fail c "%s: did not terminate" name; false)
    else if !(s.nsys) <> micro_iters + 1 then (
      fail c "%s: %d application syscalls, expected %d" name !(s.nsys)
        (micro_iters + 1);
      false)
    else if s.t.Types.exit_code <> 0 then (
      fail c "%s: exit code %d" name s.t.Types.exit_code;
      false)
    else check_sig c name s.t.Types.tcycles
  in
  let ok =
    match s.audit with
    | None -> ok
    | Some a ->
        let app = Sim_audit.Audit.app_count a in
        if c.tr <> None then begin
          lay_add c "audit.events" (float_of_int a.Sim_audit.Audit.seq);
          lay_add c "audit.checkpoints"
            (float_of_int (List.length a.Sim_audit.Audit.rows_rev - a.Sim_audit.Audit.seq));
          lay_add c "audit.retained_words" (float_of_int (Obj.reachable_words (Obj.repr a)))
        end;
        if app <> !(s.nsys) then (
          fail c "%s: recorder saw %d application syscalls, strace slot %d" name
            app !(s.nsys);
          false)
        else ok
  in
  if not ok then c.failed <- c.failed + 1

(* Boot each sub-run just before it runs, so only one kernel is live
   at a time. *)
let micro_round ~record ~order c =
  List.iter (fun m -> run_sub c (setup c (fun () -> boot_micro c ~record m))) order

(* The recorder must be observation-only: its cycle references come
   from unrecorded runs of the same loop. *)
let record_prepare ~order c = micro_round ~record:false ~order c

let micro_report c =
  print_endline "micro cycles per iteration (simulated; EXPERIMENTS.md Table II):";
  let cyc m =
    match Hashtbl.find_opt c.refs (Mb.config_name m) with
    | Some v -> Int64.to_float v /. float_of_int micro_iters
    | None -> nan
  in
  let native = cyc Mb.Native in
  List.iter
    (fun (m, expected) ->
      Printf.printf "  %-14s %9.2f cycles/iter  %6.2fx native  (EXPERIMENTS.md %.2fx)\n"
        (Mb.config_name m) (cyc m) (cyc m /. native) expected)
    micro_mechs

(* ------------------------------------------------------------------ *)
(* wrk: nginx-sim under lazypoline against the wrk load generator      *)

let wrk_conns = 100
let wrk_requests = 4000
let wrk_port = 80
let wrk_file = "/www/index.html"
let wrk_size = 8192

let wrk_body seed =
  let rng = Random.State.make [| seed; 0x77 |] in
  String.init wrk_size (fun _ -> Char.chr (32 + Random.State.int rng 95))

(* Track which connection carries which request id, so per-connection
   completions can be counted from the generator's latency log. *)
let wrap_actors c (k : Types.kernel) (g : Workloads.Wrk.t) =
  match c.tr with
  | None -> None
  | Some s ->
      let aid = Spans.id s "workloads.wrk.actor" in
      let oid = Spans.id s "bench.observe" in
      let conns = Array.of_list g.Workloads.Wrk.conns in
      let last = Array.make (Array.length conns) (-1) in
      let owner = Hashtbl.create 4096 in
      k.Types.actors <-
        List.map
          (fun f () ->
            Spans.wrap s aid f;
            lay_add c "workloads.wrk.actor_steps" 1.0;
            Spans.wrap s oid (fun () ->
                Array.iteri
                  (fun i (cn : Workloads.Wrk.conn) ->
                    let rid = cn.Workloads.Wrk.rid in
                    if rid >= 0 && rid <> last.(i) then begin
                      last.(i) <- rid;
                      Hashtbl.replace owner rid i
                    end)
                  conns))
          k.Types.actors;
      Some (conns, owner)

let wrk_round ~seed c =
  next_unit c;
  let body = wrk_body seed in
  let k, g, nsys, conn_map =
    setup c (fun () ->
        let k = new_kernel c in
        ignore (Vfs.add_file k.Types.vfs wrk_file body);
        ignore (Vfs.add_file k.Types.vfs "/log/access" "");
        let flavour = Workloads.Webserver.Nginx_like in
        let img =
          compile c ~jit:false
            (Workloads.Webserver.source ~exit_after:wrk_requests ~flavour
               ~port:wrk_port ~workers:1 ())
        in
        let t = spawn c k ~comm:(Workloads.Webserver.flavour_name flavour) img in
        install c (fun () ->
            ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ())));
        wrap_interposer c k t;
        let nsys = count_syscalls c k in
        if
          not
            (drive ~sample:false c k ~until:(fun () ->
                 Hashtbl.mem k.Types.net.Net.listeners wrk_port))
        then failwith "wrk: server never listened";
        let g =
          Workloads.Wrk.attach ~max_requests:wrk_requests k ~port:wrk_port
            ~conns:wrk_conns ~file:wrk_file ~file_size:wrk_size
        in
        (k, g, nsys, wrap_actors c k g))
  in
  c.attempted <- c.attempted + wrk_requests;
  let sys0 = !nsys in
  let ok =
    with_layers c (fun () -> Some k) (fun () ->
        timed c (fun () -> drive c k ~until:(all_exited k)))
  in
  let open Workloads.Wrk in
  c.r_sys <- c.r_sys + (!nsys - sys0);
  c.r_units <- c.r_units + g.completed;
  let short = List.length (List.filter (fun cn -> cn.to_recv <> 0) g.conns) in
  let run_ok =
    if not ok then (fail c "wrk: server did not exit"; false)
    else if short > 0 then (
      fail c "wrk: %d connections ended mid-response" short;
      false)
    else
      (* The final clock is rounded to a slice boundary; the latency
         sum moves with any simulated timing change. *)
      check_sig c "wrk final clock" (Types.global_time k)
      && check_sig c "wrk latency sum"
           (List.fold_left
              (fun a (_, i, d) -> Int64.add a (Int64.sub d i))
              0L (latencies g))
  in
  let bad =
    if run_ok then wrk_requests - g.completed + g.errors else wrk_requests
  in
  if g.completed <> wrk_requests || g.errors <> 0 then
    fail c "wrk: %d/%d requests completed, %d errors" g.completed wrk_requests
      g.errors;
  c.failed <- c.failed + min wrk_requests (max 0 bad);
  match conn_map with
  | None -> ()
  | Some (conns, owner) ->
      let per = Array.make (Array.length conns) 0 in
      let lats =
        List.map
          (fun (rid, i, d) ->
            (match Hashtbl.find_opt owner rid with
            | Some ci -> per.(ci) <- per.(ci) + 1
            | None -> ());
            Int64.to_float (Int64.sub d i))
          (latencies g)
      in
      lay_add c "workloads.wrk.conn_min_completed"
        (float_of_int (Array.fold_left min max_int per));
      lay_add c "workloads.wrk.conn_max_completed"
        (float_of_int (Array.fold_left max 0 per));
      lay_add c "workloads.wrk.sim_latency_p99_cyc"
        (Sim_stats.Stats.percentile lats 99.0);
      lay_add c "workloads.wrk.sim_latency_max_cyc"
        (List.fold_left Float.max 0.0 lats);
      lay_add c "workloads.wrk.latency_samples" (float_of_int (List.length lats))

(* ------------------------------------------------------------------ *)
(* sweep: many small programs, each in a fresh kernel                  *)

let sweep_pool = 128

type oracle = { exit_code : int; console : string }

let sweep_run c ~files img =
  let k = new_kernel c in
  List.iter (fun (p, s) -> ignore (Vfs.add_file k.Types.vfs p s)) files;
  let t = spawn c k img in
  (k, t)

let sweep_native ~seed =
  let c = new_ctx () in
  let files = Progs.files ~seed in
  Array.init sweep_pool (fun i ->
      let src, jit = Progs.program ~seed i in
      let img = compile c ~jit src in
      let k, t = sweep_run c ~files img in
      if not (drive ~sample:false c k ~until:(all_exited k)) then
        failwith (Printf.sprintf "sweep: native program %d did not exit" i);
      { exit_code = t.Types.exit_code; console = Buffer.contents Kernel.console })

let sweep_round ~seed ~(oracle : oracle array) c =
  let files = Progs.files ~seed in
  let imgs =
    setup c (fun () ->
        Array.init sweep_pool (fun i ->
            let src, jit = Progs.program ~seed i in
            compile c ~jit src))
  in
  Array.iteri
    (fun i img ->
      next_unit c;
      c.attempted <- c.attempted + 1;
      let key = Printf.sprintf "sweep program %d" i in
      let kref = ref None in
      let ok =
        with_layers c (fun () -> !kref) (fun () ->
            timed c (fun () ->
                let k, t = sweep_run c ~files img in
                kref := Some k;
                install c (fun () ->
                    ignore (Lazypoline.install k t (Lazypoline.Hook.dummy ())));
                wrap_interposer c k t;
                let nsys = count_syscalls c k in
                let ok = drive c k ~until:(all_exited k) in
                c.r_sys <- c.r_sys + !nsys;
                let o = oracle.(i) in
                if not ok then (fail c "%s: did not exit" key; false)
                else if t.Types.exit_code <> o.exit_code then (
                  fail c "%s: exit %d, native %d" key t.Types.exit_code o.exit_code;
                  false)
                else if Buffer.contents Kernel.console <> o.console then (
                  fail c "%s: console output differs from native" key;
                  false)
                else check_sig c key t.Types.tcycles))
      in
      c.r_units <- c.r_units + 1;
      if not ok then c.failed <- c.failed + 1)
    imgs

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)

type workload = {
  wname : string;
  unit_noun : string;  (** what [attempted] counts *)
  rate_name : string;  (** what [units_per_s] counts, by its own name *)
  prepare : ctx -> unit;  (** once, unmeasured: output oracles *)
  round : ctx -> unit;
}

let workload name seed =
  match name with
  | "micro" ->
      let order = micro_order seed in
      Some
        {
          wname = name;
          unit_noun = "sub-runs";
          rate_name = "iterations_per_s";
          prepare = (fun _ -> ());
          round = micro_round ~record:false ~order;
        }
  | "record" ->
      let order = micro_order seed in
      Some
        {
          wname = name;
          unit_noun = "sub-runs";
          rate_name = "iterations_per_s";
          prepare = record_prepare ~order;
          round = micro_round ~record:true ~order;
        }
  | "wrk" ->
      Some
        {
          wname = name;
          unit_noun = "requests";
          rate_name = "requests_per_s";
          prepare = (fun _ -> ());
          round = wrk_round ~seed;
        }
  | "sweep" ->
      let oracle = ref [||] in
      Some
        {
          wname = name;
          unit_noun = "programs";
          rate_name = "programs_per_s";
          prepare = (fun _ -> oracle := sweep_native ~seed);
          round = (fun c -> sweep_round ~seed ~oracle:!oracle c);
        }
  | _ -> None

let run_round c w =
  c.r_setup <- 0;
  c.r_timed <- 0;
  c.r_setup_n <- 0.0;
  c.r_timed_n <- 0.0;
  c.r_sys <- 0;
  c.r_units <- 0;
  c.r_words <- 0.0;
  c.r_probe_ns <- 0;
  c.r_probes <- 0;
  Samples.reset c.samples;
  probe c;
  w.round c;
  let p50, p99 =
    match Samples.percentiles c.samples [ 50.0; 99.0 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  {
    setup_ns = c.r_setup_n;
    timed_ns = c.r_timed_n;
    raw_setup_ns = c.r_setup;
    raw_timed_ns = c.r_timed;
    syscalls = c.r_sys;
    units = c.r_units;
    words = c.r_words;
    slices = c.samples.Samples.n;
    slice_p50_ns = p50;
    slice_p99_ns = p99;
    probe_speed = Probe.ref_ns *. float_of_int c.r_probes /. float_of_int c.r_probe_ns;
  }

(** Whole rounds until [seconds] of host time have passed (at least
    one). *)
let run_rounds c w ~seconds =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let acc = run_round c w :: acc in
    if now_ns () < t_end then go acc else List.rev acc
  in
  go []

let median xs = Sim_stats.Stats.percentile xs 50.0
let rate n ns = float_of_int n /. (ns /. 1e9)
let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct c metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct c.attempted c.failed body

let end_to_end w rounds =
  let syscalls = sum (fun r -> r.syscalls) rounds in
  let words = List.fold_left (fun a r -> a +. r.words) 0.0 rounds in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let n = List.length rounds in
  (* Host-time metrics: median over rounds of the per-round value at
     the reference memory speed; the raw median is printed alongside
     (slice times are scaled sample by sample, so have no raw form). *)
  let both f g = (median (List.map f rounds), median (List.map g rounds)) in
  let exact v = (v, v) in
  let raw_f r = float_of_int r.raw_timed_ns in
  let m =
    [
      ("setup_s", "s",
        both (fun r -> r.setup_ns /. 1e9) (fun r -> float_of_int r.raw_setup_ns /. 1e9));
      ("syscalls_per_s", "1/s",
        both (fun r -> rate r.syscalls r.timed_ns) (fun r -> rate r.syscalls (raw_f r)));
      ("units_per_s", "1/s",
        both (fun r -> rate r.units r.timed_ns) (fun r -> rate r.units (raw_f r)));
      ("slice_us_p50", "us", exact (median (List.map (fun r -> r.slice_p50_ns /. 1e3) rounds)));
      ("slice_us_p99", "us", exact (median (List.map (fun r -> r.slice_p99_ns /. 1e3) rounds)));
      ("alloc_words_per_syscall", "words", exact (words /. float_of_int syscalls));
      ("peak_heap_mb", "MB", exact heap_mb);
    ]
  in
  let speeds = List.map (fun r -> r.probe_speed) rounds in
  Printf.printf "memory-speed probe: speed factor median %.3f, range %.3f..%.3f over %d rounds\n"
    (median speeds) (List.fold_left Float.min infinity speeds)
    (List.fold_left Float.max 0.0 speeds) n;
  List.iter
    (fun (name, unit_, (v, raw)) ->
      let note =
        match name with
        | "setup_s" | "syscalls_per_s" ->
            Printf.sprintf "normalized median of %d rounds; raw %.6g" n raw
        | "units_per_s" ->
            Printf.sprintf "%s, normalized median of %d rounds; raw %.6g" w.rate_name n raw
        | "slice_us_p50" | "slice_us_p99" ->
            Printf.sprintf "normalized median of %d per-round percentiles, %d slices/round"
              n (sum (fun r -> r.slices) rounds / max 1 n)
        | "alloc_words_per_syscall" ->
            Printf.sprintf "%.0f minor words / %d application syscalls" words syscalls
        | _ -> "Gc.top_heap_words at the end of the timed phase"
      in
      Printf.printf "%-24s %14.6g %-6s (%s)\n" name v unit_ note)
    m;
  List.map (fun (name, unit_, (v, _)) -> (name, unit_, v)) m

(* Per-layer metrics: (name, unit, value, base/explanation). *)
let per_layer c ~untraced ~traced =
  let r = Float.max 1.0 (lay_get c "rounds") in
  let units = Float.max 1.0 (lay_get c "units") in
  let per name = lay_get c name /. r in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let us name =
    match c.tr with
    | Some s -> (
        match Spans.find_stat s name with
        | Some st -> (float_of_int st.Spans.self_ns /. 1e3, st.Spans.calls)
        | None -> (0.0, 0))
    | None -> (0.0, 0)
  in
  let self_per name = fst (us name) /. r in
  let mean_us name =
    let t, n = us name in
    if n = 0 then 0.0 else t /. float_of_int n
  in
  let app = lay_get c "kernel.app_syscalls" in
  let insns = lay_get c "cpu.insns" in
  let hits = lay_get c "cpu.icache_hits" and misses = lay_get c "isa.decodes" in
  let waits = lay_get c "kernel.epoll_waits" in
  let interposed =
    List.fold_left
      (fun a p -> a +. lay_get c ("kernel.syscalls." ^ p))
      0.0 [ "fast-path"; "sud-sigsys"; "seccomp"; "ptrace-stop" ]
  in
  let counts = List.map (fun n -> (n, "count/round", per n, "")) in
  [ ("cpu.insns", "count/round", per "cpu.insns", "");
    ("cpu.insns_per_syscall", "insn/syscall", ratio insns app,
      Printf.sprintf "base: %.0f application syscalls/round" (app /. r));
    ("cpu.block_insn_share", "ratio", ratio (lay_get c "cpu.block_insns") insns,
      Printf.sprintf "base: %.0f insns/round" (insns /. r));
    ("cpu.icache_hit_ratio", "ratio", ratio hits (hits +. misses),
      Printf.sprintf "base: %.0f icache lookups/round" ((hits +. misses) /. r)) ]
  @ counts
      [ "cpu.blocks_compiled"; "cpu.block_entries"; "cpu.block_exits.end";
        "cpu.block_exits.budget"; "cpu.block_exits.smc"; "cpu.block_exits.fault";
        "cpu.block_exits.preempt"; "cpu.block_fallbacks.cold";
        "cpu.block_fallbacks.uncompilable"; "cpu.block_fallbacks.hooked";
        "cpu.icache_invalidations"; "isa.decodes" ]
  @ [ ("isa.decodes_per_program", "count/unit", lay_get c "isa.decodes" /. units,
        Printf.sprintf "base: %.0f units/round (programs, sub-runs or server runs)"
          (units /. r)) ]
  @ counts
      [ "kernel.app_syscalls"; "kernel.syscalls.direct"; "kernel.syscalls.fast-path";
        "kernel.syscalls.sud-sigsys"; "kernel.syscalls.seccomp";
        "kernel.syscalls.ptrace-stop"; "kernel.signal_deliveries"; "kernel.sigreturns";
        "kernel.context_switches"; "kernel.slices" ]
  @ [ ("kernel.self_us", "us/round", self_per "kernel.run_slice",
        "run_slice time minus hypercall, monitor and actor spans");
      ("kernel.epoll_waits", "count/round", per "kernel.epoll_waits", "");
      ("kernel.epoll_events_per_wait", "events/wait", ratio (lay_get c "kernel.epoll_events") waits,
        Printf.sprintf "base: maxevents %.0f" (ratio (lay_get c "kernel.epoll_maxevents") waits));
      ("kernel.epoll_interest_per_wait", "fds/wait", ratio (lay_get c "kernel.epoll_interest") waits, "");
      ("workloads.wrk.conn_min_completed", "count/round", per "workloads.wrk.conn_min_completed",
        Printf.sprintf "base: %d requests over %d connections" wrk_requests wrk_conns);
      ("workloads.wrk.conn_max_completed", "count/round", per "workloads.wrk.conn_max_completed", "");
      ("workloads.wrk.sim_latency_p99_cyc", "cycles", per "workloads.wrk.sim_latency_p99_cyc",
        Printf.sprintf "simulated; n=%.0f requests/round" (per "workloads.wrk.latency_samples"));
      ("workloads.wrk.sim_latency_max_cyc", "cycles", per "workloads.wrk.sim_latency_max_cyc", "simulated");
      ("core.hypercalls", "count/round", float_of_int (snd (us "core.hypercall")) /. r, "");
      ("core.hypercall_us", "us/round", self_per "core.hypercall", "");
      ("core.rewrites", "count/round", per "core.rewrites", "");
      ("core.selector_flips", "count/round", per "core.selector_flips", "");
      ("core.fast_path_share", "ratio", ratio (lay_get c "kernel.syscalls.fast-path") interposed,
        Printf.sprintf "base: %.0f interposed dispatches/round" (interposed /. r));
      ("core.install_us", "us/install", mean_us "core.install",
        Printf.sprintf "n=%d" (snd (us "core.install")));
      ("baselines.sweep_bytes", "bytes/round", per "baselines.sweep_bytes", "");
      ("baselines.ptrace_monitor_us", "us/round", self_per "baselines.ptrace_monitor", "");
      ("loader.spawn_us", "us/spawn", mean_us "loader.spawn",
        Printf.sprintf "n=%d" (snd (us "loader.spawn")));
      ("kernel.mmap_bytes", "bytes/round", per "kernel.mmap_bytes", "");
      ("kernel.mprotect_bytes", "bytes/round", per "kernel.mprotect_bytes", "");
      ("kernel.wx_flips", "count/round", per "kernel.wx_flips", "");
      ("minicc.compile_us", "us/program", mean_us "minicc.compile",
        Printf.sprintf "n=%d" (snd (us "minicc.compile")));
      ("minicc.programs", "count/round", per "minicc.programs", "");
      ("workloads.wrk.actor_us", "us/round", self_per "workloads.wrk.actor", "");
      ("workloads.wrk.actor_steps", "count/round", per "workloads.wrk.actor_steps", "");
      ("audit.events", "count/round", per "audit.events", "");
      ("audit.checkpoints", "count/round", per "audit.checkpoints", "");
      ("audit.retained_words_per_event", "words/event",
        ratio (lay_get c "audit.retained_words") (lay_get c "audit.events"),
        "Obj.reachable_words of each recorder at the end of its sub-run") ]
  @ counts [ "gc.minor_words"; "gc.promoted_words"; "gc.minor_collections"; "gc.major_collections" ]
  @ [ ("trace.syscalls_per_s_untraced", "1/s", untraced,
        "untraced half of this run, normalized median of rounds");
      ("trace.syscalls_per_s_traced", "1/s", traced,
        "traced half of this run, normalized median of rounds");
      ("trace.overhead", "ratio", ratio untraced traced, "untraced / traced syscalls_per_s") ]

let print_span_table c =
  match c.tr with
  | None -> ()
  | Some s ->
      let r = Float.max 1.0 (lay_get c "rounds") in
      Printf.printf "%-26s %14s %14s %14s\n" "span" "count/round" "total us/round"
        "self us/round";
      List.iter
        (fun (st : Spans.stat) ->
          Printf.printf "%-26s %14.1f %14.1f %14.1f\n" st.Spans.name
            (float_of_int st.Spans.calls /. r)
            (float_of_int st.Spans.total_ns /. 1e3 /. r)
            (float_of_int st.Spans.self_ns /. 1e3 /. r))
        (Spans.stats s);
      Printf.printf "spans retained=%d dropped=%d\n" (Spans.retained s) (Spans.dropped s)

let main workload_name seed seconds trace out_dir =
  (* A stray knob must not pass for a regression: refuse to measure
     with the block-engine switch in the environment at all. *)
  if Sys.getenv_opt "SIM_NO_BLOCKS" <> None then begin
    prerr_endline "perfbench: SIM_NO_BLOCKS is set; refusing to measure";
    exit 2
  end;
  match workload workload_name seed with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (micro, wrk, sweep, record)\n"
        workload_name;
      exit 2
  | Some w ->
      let env k = Option.value ~default:"-" (Sys.getenv_opt k) in
      Printf.printf
        "perfbench workload=%s seed=%d seconds=%g trace=%b\n\
         env: ocaml=%s flambda=%b nproc=%d OCAMLRUNPARAM=%s SIM_NO_BLOCKS=%s\n%!"
        w.wname seed seconds trace Sys.ocaml_version Build_info.flambda
        (Domain.recommended_domain_count ())
        (env "OCAMLRUNPARAM") (env "SIM_NO_BLOCKS");
      let c = new_ctx () in
      w.prepare c;
      (* Warm-up: checked, establishes the cycle references, not
         measured.  Its units, and those of [prepare], stay in
         [attempted] and [failed]. *)
      ignore (run_round c w);
      let metrics =
        if not trace then begin
          let rounds = run_rounds c w ~seconds in
          let attempted = c.attempted in
          Printf.printf "rounds=%d  %s attempted=%d failed=%d failed_frac=%g\n"
            (List.length rounds) w.unit_noun attempted c.failed
            (if attempted = 0 then 0.0 else float_of_int c.failed /. float_of_int attempted);
          end_to_end w rounds
        end
        else begin
          let half = seconds /. 2.0 in
          let sys_rate rounds =
            median (List.map (fun r -> rate r.syscalls r.timed_ns) rounds)
          in
          let untraced = sys_rate (run_rounds c w ~seconds:half) in
          let sp = Spans.create () in
          c.tr <- Some sp;
          let g0 = Gc.quick_stat () in
          let rounds = run_rounds c w ~seconds:half in
          let g1 = Gc.quick_stat () in
          let traced = sys_rate rounds in
          lay_add c "rounds" (float_of_int (List.length rounds));
          lay_add c "kernel.app_syscalls"
            (float_of_int (sum (fun r -> r.syscalls) rounds));
          lay_add c "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
          lay_add c "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
          lay_add c "gc.minor_collections"
            (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
          lay_add c "gc.major_collections"
            (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
          Printf.printf "traced rounds=%d  %s attempted=%d failed=%d\n"
            (List.length rounds) w.unit_noun c.attempted c.failed;
          print_span_table c;
          let rows = per_layer c ~untraced ~traced in
          List.iter
            (fun (n, u, v, note) ->
              Printf.printf "%-36s %14.6g %-12s %s\n" n v u note)
            rows;
          (try
             if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
             let path =
               Filename.concat out_dir
                 (Printf.sprintf "spans-%s-seed%d.json" w.wname seed)
             in
             Spans.write_chrome sp path;
             Printf.printf "spans written to %s\n" path
           with Sys_error e -> Printf.printf "spans not written: %s\n" e);
          List.map (fun (n, u, v, _) -> (n, u, v)) rows
        end
      in
      if w.wname = "micro" || w.wname = "record" then micro_report c;
      List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev c.failures);
      print_result ~correct:(c.failed = 0 && c.failures = []) c metrics

let () =
  let open Cmdliner in
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to run: micro, wrk, sweep or record.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "seconds" ] ~doc:"Host seconds to measure.")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ]
           ~doc:"1: report per-layer metrics from a traced run instead of the end-to-end metrics.")
  in
  let out =
    Arg.(value & opt string "perfbench/out" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory the traced run writes its spans to.")
  in
  let term =
    Term.(const (fun w s secs t o -> main w s secs (t <> 0) o)
          $ workload $ seed $ seconds $ trace $ out)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "perfbench" ~doc:"Host-cost benchmark of the simulator") term))
