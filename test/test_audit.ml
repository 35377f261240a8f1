(** The divergence auditor (observability layer 3).

    Three claims under test:
    - record → replay is bit-identical (serialized stream, chain hash,
      checkpoint hashes, final state hash) for every interposition
      mechanism — the recorder is deterministic and observation-only;
    - the cross-mechanism diff is empty for every correct interposer:
      raw, SUD, zpoline, lazypoline, seccomp-user and ptrace produce
      identical per-task application streams on the microbench and the
      minicc-JIT workloads;
    - a seeded fault (an interposer clobbering a callee-saved register
      on one syscall) is localized by the bisection to exactly that
      syscall index and register, with a state delta at the point of
      divergence. *)

open Sim_kernel
module A = Sim_audit.Audit
module D = Harness.Divergence
module Micro = Workloads.Microbench_prog

let all_configs =
  Micro.
    [
      Native;
      Native_sud_allow;
      Zpoline;
      Lazypoline_full;
      Lazypoline_noxstate;
      Lazypoline_nosud;
      Lazypoline_protected;
      Sud;
      Seccomp_user;
      Seccomp_bpf;
      Ptrace;
    ]

let record_micro ?(iters = 120) ?(nr = 500) config =
  let a = A.create ~checkpoint_every:16 () in
  let final = ref 0L in
  let cycles =
    Micro.run ~iters ~nr ~observers:[ Observers.auditor a ]
      ~on_done:(fun k _t -> final := Kernel.audit_final_hash k a)
      config
  in
  let log = D.log_string ~final_hash:!final a in
  (cycles, log, A.chain a, !final)

(* --- record → replay bit-identity ---------------------------------- *)

let test_replay_identical_all_configs () =
  List.iter
    (fun config ->
      let c1, log1, chain1, f1 = record_micro config in
      let c2, log2, chain2, f2 = record_micro config in
      let name = Micro.config_name config in
      Alcotest.(check (float 0.0)) (name ^ ": cycles") c1 c2;
      Alcotest.(check string) (name ^ ": stream") log1 log2;
      Alcotest.(check int64) (name ^ ": chain") chain1 chain2;
      Alcotest.(check int64) (name ^ ": final hash") f1 f2;
      Alcotest.(check bool) (name ^ ": non-empty") true
        (String.length log1 > 0))
    all_configs

let prop_record_replay =
  QCheck.Test.make ~count:12 ~name:"record → replay bit-identical (random)"
    (QCheck.make
       ~print:(fun (ci, iters, nr) ->
         Printf.sprintf "%s iters=%d nr=%d"
           (Micro.config_name (List.nth all_configs ci))
           iters nr)
       QCheck.Gen.(
         triple
           (int_range 0 (List.length all_configs - 1))
           (int_range 20 200) (int_range 480 520)))
    (fun (ci, iters, nr) ->
      let config = List.nth all_configs ci in
      let _, log1, chain1, f1 = record_micro ~iters ~nr config in
      let _, log2, chain2, f2 = record_micro ~iters ~nr config in
      log1 = log2 && chain1 = chain2 && f1 = f2)

let replay_forkexec mech =
  let a, k, _ = D.run_audited ~checkpoint_every:8 mech D.Forkexec in
  D.log_string ~final_hash:(Kernel.audit_final_hash k a) a

let test_replay_forkexec () =
  List.iter
    (fun mech ->
      let l1 = replay_forkexec mech and l2 = replay_forkexec mech in
      Alcotest.(check string)
        (D.mech_name mech ^ ": fork/execve stream")
        l1 l2;
      (* both tasks must appear in the stream *)
      Alcotest.(check bool)
        (D.mech_name mech ^ ": two tasks")
        true
        (String.length l1 > 0 && String.contains l1 '\n'))
    [ D.Raw; D.Lazypoline_m; D.Sud ]

(* --- the audited stream has the right shape ------------------------ *)

let test_stream_shape () =
  let a = A.create ~checkpoint_every:16 () in
  ignore (Micro.run ~iters:50 ~observers:[ Observers.auditor a ] Micro.Native);
  (* 50 loop syscalls + exit_group, all App scope *)
  let app = A.app_stream_of_tid a 1 in
  Alcotest.(check int) "app events" 51 (Array.length app);
  Alcotest.(check int) "app count" 51 (A.app_count a);
  (match app.(0).A.ev with
  | A.Syscall { nr; ret = Some r; _ } ->
      Alcotest.(check int) "nr" 500 nr;
      Alcotest.(check int64) "ENOSYS" (Int64.of_int (-Defs.enosys)) r
  | _ -> Alcotest.fail "expected a syscall event");
  (match app.(50).A.ev with
  | A.Syscall { nr; ret = None; _ } ->
      Alcotest.(check int) "exit_group" Defs.sys_exit_group nr
  | _ -> Alcotest.fail "expected exit_group with no result");
  (* checkpoints were taken every 16 app syscalls *)
  Alcotest.(check int) "checkpoints" 3 (List.length (A.checkpoints a))

let test_mech_events_classified () =
  (* under SUD every app syscall also produces a SIGSYS delivery, a
     stub re-issue and a sigreturn; the App stream must still equal
     the raw one *)
  let raw = A.create () in
  ignore (Micro.run ~iters:40 ~observers:[ Observers.auditor raw ] Micro.Native);
  let sud = A.create () in
  ignore (Micro.run ~iters:40 ~observers:[ Observers.auditor sud ] Micro.Sud);
  let mech_events =
    List.filter (fun (e : A.entry) -> e.A.scope = A.Mech) (A.entries sud)
  in
  Alcotest.(check bool) "sud has mechanism-private events" true
    (List.length mech_events > 0);
  Alcotest.(check (option pass)) "no divergence raw vs sud" None
    (A.first_divergence raw sud);
  (* raw has no Mech events at all *)
  Alcotest.(check int) "raw is all-App" 0
    (List.length
       (List.filter (fun (e : A.entry) -> e.A.scope = A.Mech) (A.entries raw)))

(* --- cross-mechanism zero divergence ------------------------------- *)

let test_diff_micro_zero () =
  let o = D.diff (D.Micro { iters = 60; nr = 500 }) in
  if o.D.o_findings <> [] then Alcotest.failf "diverged:\n%s" o.D.o_text;
  Alcotest.(check int) "all six mechanisms ran" 6 (List.length o.D.o_runs)

let test_diff_minicc_jit_zero () =
  let o = D.diff (D.Prog { src = Harness.Experiments.tcc_app; jit = true }) in
  if o.D.o_findings <> [] then Alcotest.failf "diverged:\n%s" o.D.o_text

(* --- seeded-fault bisection ---------------------------------------- *)

let test_bisection_localizes_fault () =
  (* zpoline clobbers callee-saved rbx on its 10th interception; rbx
     is the loop counter, so the fault is architecturally visible *)
  let p = { D.at = 10; reg = Sim_isa.Isa.rbx; value = 3L } in
  let o =
    D.diff
      ~perturb_for:(D.Zpoline, p)
      ~mechs:[ D.Raw; D.Zpoline ]
      (D.Micro { iters = 40; nr = 500 })
  in
  match o.D.o_findings with
  | [ f ] ->
      Alcotest.(check string) "mechanism" "zpoline" (D.mech_name f.D.f_mech);
      (* app events are 1-based in the report; index is 0-based *)
      Alcotest.(check int) "first divergent syscall index" 9
        f.D.f_div.A.d_index;
      Alcotest.(check bool)
        ("reason names rbx: " ^ f.D.f_div.A.d_reason)
        true
        (let r = f.D.f_div.A.d_reason in
         String.length r >= 3
         &&
         let found = ref false in
         for i = 0 to String.length r - 3 do
           if String.sub r i 3 = "rbx" then found := true
         done;
         !found);
      (* the delta dump replayed both runs and shows the clobbered
         register *)
      Alcotest.(check bool)
        "delta dump present" true
        (String.length f.D.f_delta > 0)
  | l -> Alcotest.failf "expected exactly one finding, got %d" (List.length l)

let test_bisection_clean_without_fault () =
  let o =
    D.diff ~mechs:[ D.Raw; D.Zpoline ] (D.Micro { iters = 40; nr = 500 })
  in
  Alcotest.(check int) "no findings" 0 (List.length o.D.o_findings)

(* --- create rejects nonsense cadences ------------------------------ *)

let test_create_rejects_nonpositive () =
  List.iter
    (fun bad ->
      match A.create ~checkpoint_every:bad () with
      | _ -> Alcotest.failf "checkpoint_every %d accepted" bad
      | exception Invalid_argument _ -> ())
    [ 0; -1; -64 ];
  (* 1 is the smallest legal cadence *)
  ignore (A.create ~checkpoint_every:1 ())

(* --- observation-only: auditing never perturbs the run ------------- *)

let test_audit_observation_only () =
  List.iter
    (fun config ->
      let bare = Micro.run ~iters:80 config in
      let a = A.create () in
      let audited =
        Micro.run ~iters:80 ~observers:[ Observers.auditor a ] config
      in
      Alcotest.(check (float 0.0))
        (Micro.config_name config ^ ": cycles identical")
        bare audited)
    all_configs

let tests =
  [
    Alcotest.test_case "replay identical, all 11 configs" `Slow
      test_replay_identical_all_configs;
    QCheck_alcotest.to_alcotest prop_record_replay;
    Alcotest.test_case "replay identical, fork/execve" `Quick
      test_replay_forkexec;
    Alcotest.test_case "stream shape" `Quick test_stream_shape;
    Alcotest.test_case "mechanism-private classification" `Quick
      test_mech_events_classified;
    Alcotest.test_case "diff: microbench zero divergence" `Slow
      test_diff_micro_zero;
    Alcotest.test_case "diff: minicc-jit zero divergence" `Slow
      test_diff_minicc_jit_zero;
    Alcotest.test_case "bisection localizes seeded fault" `Quick
      test_bisection_localizes_fault;
    Alcotest.test_case "bisection clean without fault" `Quick
      test_bisection_clean_without_fault;
    Alcotest.test_case "create rejects non-positive cadence" `Quick
      test_create_rejects_nonpositive;
    Alcotest.test_case "auditing is observation-only" `Slow
      test_audit_observation_only;
  ]
